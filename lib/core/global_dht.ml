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
let vnodes t = Balancer.vnodes t.balancer

let quotas t =
  let space = t.params.Params.space in
  Array.map (Vnode.quota space) (vnodes t)

let sigma_qv t = Metrics.sigma_percent (quotas t)

let map t = t.map
let balancer t = t.balancer
