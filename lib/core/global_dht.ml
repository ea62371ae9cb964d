open Dht_hashspace

module Vtbl = Hashtbl.Make (Vnode_id)

type t = {
  params : Params.t;
  balancer : Balancer.t;
  map : Vnode.t Point_map.t;
  index : Vnode.t Vtbl.t;
}

let create ?space ?(on_event = fun _ -> ()) ~pmin ~first () =
  let params = Params.global ?space ~pmin () in
  let map = Point_map.create params.Params.space in
  let notify = Routing.chain (Routing.apply map) on_event in
  let vnode = Vnode.make ~id:first ~group:Group_id.root in
  let balancer =
    Balancer.bootstrap ~params ~group:Group_id.root ~vnode ~notify
  in
  Routing.register_vnode map vnode;
  let index = Vtbl.create 64 in
  Vtbl.add index first vnode;
  { params; balancer; map; index }

let add_vnode t ~id =
  if Vtbl.mem t.index id then invalid_arg "Global_dht: duplicate vnode id";
  let v = Vnode.make ~id ~group:Group_id.root in
  Balancer.add_vnode t.balancer v;
  Vtbl.add t.index id v;
  v

let find_vnode t id = Vtbl.find_opt t.index id

let restore ?space ?(on_event = fun _ -> ()) ~pmin ~level ~vnodes:members () =
  if members = [] then invalid_arg "Global_dht.restore: no vnodes";
  let params = Params.global ?space ~pmin () in
  let map = Point_map.create params.Params.space in
  let notify = Routing.chain (Routing.apply map) on_event in
  let index = Vtbl.create 64 in
  let records =
    List.map
      (fun (id, spans) ->
        if Vtbl.mem index id then
          invalid_arg "Global_dht.restore: duplicate vnode id";
        let v = Vnode.make ~id ~group:Group_id.root in
        List.iter
          (fun s ->
            if Dht_hashspace.Span.level s <> level then
              invalid_arg "Global_dht.restore: span level mismatch";
            Vnode.add_span v s)
          spans;
        Vtbl.add index id v;
        Routing.register_vnode map v;
        v)
      members
  in
  let balancer =
    Balancer.of_vnodes ~params ~group:Group_id.root ~level ~notify
      (Array.of_list records)
  in
  (match Dht_hashspace.Coverage.check params.Params.space (Point_map.spans map)
   with
  | Ok () -> ()
  | Error e ->
      invalid_arg
        (Format.asprintf "Global_dht.restore: %a" Dht_hashspace.Coverage.pp_error
           e));
  { params; balancer; map; index }

let remove_vnode t ~id =
  match Vtbl.find_opt t.index id with
  | None -> invalid_arg "Global_dht.remove_vnode: unknown vnode id"
  | Some v -> (
      match Balancer.remove_vnode t.balancer v with
      | Ok () ->
          Vtbl.remove t.index id;
          Ok ()
      | Error _ as e -> e)

let params t = t.params
let vnode_count t = Balancer.vnode_count t.balancer
let level t = Balancer.level t.balancer
let vnodes t = Balancer.vnodes t.balancer
let counts t = Balancer.counts t.balancer

let quotas t =
  let space = t.params.Params.space in
  Array.map (Vnode.quota space) (vnodes t)

let sigma_qv t = Metrics.sigma_percent (quotas t)
let sigma_pv t = Metrics.sigma_counts_percent (counts t)

let gpdr t = Balancer.lpdr t.balancer

let lookup t p = Point_map.find_point t.map p
let map t = t.map
let balancer t = t.balancer
