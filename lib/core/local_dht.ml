open Dht_hashspace
module Rng = Dht_prng.Rng

type split_info = {
  parent : Group_id.t;
  left : Group_id.t;
  right : Group_id.t;
  at_vnodes : int;
}

type selection = Quota_lookup | Uniform_group

module Gmap = Map.Make (Group_id)
module Vtbl = Hashtbl.Make (Vnode_id)

type t = {
  params : Params.t;
  rng : Rng.t;
  selection : selection;
  notify : Balancer.event -> unit;
  on_group_split : split_info -> unit;
  map : Vnode.t Point_map.t;
  index : Vnode.t Vtbl.t;  (* canonical name -> live vnode *)
  mutable groups : Balancer.t Gmap.t;
  mutable vnode_total : int;
  mutable splits : split_info list;
}

let create ?space ?(on_event = fun _ -> ()) ?(on_group_split = fun _ -> ())
    ?(selection = Quota_lookup) ~pmin ~vmin ~rng ~first () =
  let params = Params.make ?space ~pmin ~vmin () in
  let map = Point_map.create params.Params.space in
  let notify = Routing.chain (Routing.apply map) on_event in
  let vnode = Vnode.make ~id:first ~group:Group_id.root in
  let b = Balancer.bootstrap ~params ~group:Group_id.root ~vnode ~notify in
  Routing.register_vnode map vnode;
  let index = Vtbl.create 64 in
  Vtbl.add index first vnode;
  {
    params;
    rng;
    selection;
    notify;
    on_group_split;
    map;
    index;
    groups = Gmap.singleton Group_id.root b;
    vnode_total = 1;
    splits = [];
  }

let restore ?space ?(on_event = fun _ -> ()) ?(on_group_split = fun _ -> ())
    ?(selection = Quota_lookup) ~pmin ~vmin ~rng ~groups:group_specs () =
  if group_specs = [] then invalid_arg "Local_dht.restore: no groups";
  let params = Params.make ?space ~pmin ~vmin () in
  let map = Point_map.create params.Params.space in
  let notify = Routing.chain (Routing.apply map) on_event in
  let index = Vtbl.create 64 in
  let total = ref 0 in
  let groups =
    List.fold_left
      (fun acc (gid, level, members) ->
        if Gmap.mem gid acc then
          invalid_arg "Local_dht.restore: duplicate group id";
        let vnodes =
          List.map
            (fun (id, spans) ->
              if Vtbl.mem index id then
                invalid_arg "Local_dht.restore: duplicate vnode id";
              let v = Vnode.make ~id ~group:gid in
              List.iter
                (fun s ->
                  if Span.level s <> level then
                    invalid_arg "Local_dht.restore: span level mismatch";
                  Vnode.add_span v s)
                spans;
              Vtbl.add index id v;
              (* Point_map.add rejects overlaps, covering G1' partially. *)
              Routing.register_vnode map v;
              incr total;
              v)
            members
        in
        let b =
          Balancer.of_vnodes ~params ~group:gid ~level ~notify
            (Array.of_list vnodes)
        in
        Gmap.add gid b acc)
      Gmap.empty group_specs
  in
  let t =
    {
      params;
      rng;
      selection;
      notify;
      on_group_split;
      map;
      index;
      groups;
      vnode_total = !total;
      splits = [];
    }
  in
  (* Full-coverage check (gaps are not caught by pairwise overlap tests). *)
  (match Dht_hashspace.Coverage.check params.Params.space (Point_map.spans map)
   with
  | Ok () -> ()
  | Error e ->
      invalid_arg
        (Format.asprintf "Local_dht.restore: %a" Dht_hashspace.Coverage.pp_error
           e));
  t

(* §3.7: a full victim group splits into two groups of Vmin vnodes each,
   randomly selected ({!Plan.split}); the newcomer's destination is one of
   the two, chosen at random. *)
let split_group t b =
  let g = Balancer.group b in
  assert (Balancer.vnode_count b = Params.vmax t.params);
  let halves =
    Plan.split ~rng:t.rng ~vmin:t.params.Params.vmin (Balancer.lpdr b)
  in
  let gl, gr = Group_id.split g in
  let level = Balancer.level b in
  let balancer group members =
    Balancer.of_vnodes ~params:t.params ~group ~level ~notify:t.notify
      (Array.of_list (List.map (fun (id, _) -> Vtbl.find t.index id) members))
  in
  let bl = balancer gl halves.Plan.left in
  let br = balancer gr halves.Plan.right in
  t.groups <- Gmap.add gl bl (Gmap.add gr br (Gmap.remove g t.groups));
  Log.L.debug (fun m ->
      m "group %a split into %a and %a at V=%d" Group_id.pp g Group_id.pp gl
        Group_id.pp gr t.vnode_total);
  let info = { parent = g; left = gl; right = gr; at_vnodes = t.vnode_total } in
  t.splits <- info :: t.splits;
  t.on_group_split info;
  if halves.Plan.newcomer_left then bl else br

type creation_report = {
  vnode : Vnode.t;
  victim_group : Group_id.t;
  target_group : Group_id.t;
  split : split_info option;
  group_members : Vnode.t array;
}

let select_victim t ~point = snd (Point_map.find_point t.map point)

let find_vnode t id = Vtbl.find_opt t.index id

let add_vnode_routed t ~id ~victim =
  if Vtbl.mem t.index id then
    invalid_arg "Local_dht: duplicate vnode id";
  let v = Vnode.make ~id ~group:Group_id.root in
  let victim_gid = victim.Vnode.group in
  let victim_group = Gmap.find victim_gid t.groups in
  let split_before = t.splits in
  let target =
    if Balancer.vnode_count victim_group = Params.vmax t.params then
      split_group t victim_group
    else victim_group
  in
  Balancer.add_vnode target v;
  Vtbl.add t.index id v;
  t.vnode_total <- t.vnode_total + 1;
  let split =
    match t.splits with
    | info :: _ when t.splits != split_before -> Some info
    | _ -> None
  in
  {
    vnode = v;
    victim_group = victim_gid;
    target_group = Balancer.group target;
    split;
    group_members = Balancer.vnodes target;
  }

let add_vnode t ~id =
  let victim =
    match t.selection with
    | Quota_lookup ->
        (* §3.6: draw r uniformly in R_h; the owner of r is the victim
           vnode, its group the victim group. *)
        let r = Rng.int t.rng (Space.size t.params.Params.space) in
        select_victim t ~point:r
    | Uniform_group ->
        (* Ablation: every live group equally likely, whatever its quota. *)
        let n = Gmap.cardinal t.groups in
        let k = Rng.int t.rng n in
        let _, b =
          List.nth (Gmap.bindings t.groups) k
        in
        (Balancer.vnodes b).(0)
  in
  (add_vnode_routed t ~id ~victim).vnode

type removal_error =
  | Last_vnode
  | Group_at_minimum of Group_id.t
  | Group_capacity of Group_id.t

let pp_removal_error ppf = function
  | Last_vnode -> Format.fprintf ppf "the DHT cannot become empty"
  | Group_at_minimum g ->
      Format.fprintf ppf "group %a is at Vmin and may not shrink (L2)"
        Group_id.pp g
  | Group_capacity g ->
      Format.fprintf ppf
        "group %a cannot absorb the departing partitions within Pmax"
        Group_id.pp g

let remove_vnode t ~id =
  match Vtbl.find_opt t.index id with
  | None -> invalid_arg "Local_dht.remove_vnode: unknown vnode id"
  | Some v ->
      if t.vnode_total = 1 then Error Last_vnode
      else begin
        let gid = v.Vnode.group in
        let b = Gmap.find gid t.groups in
        (* L2: groups never shrink below Vmin — except group 0 while it is
           the only group (the bootstrap exception). *)
        let sole_group = Gmap.cardinal t.groups = 1 in
        if (not sole_group) && Balancer.vnode_count b <= t.params.Params.vmin
        then Error (Group_at_minimum gid)
        else
          match Balancer.remove_vnode b v with
          | Ok () ->
              Vtbl.remove t.index id;
              t.vnode_total <- t.vnode_total - 1;
              Ok ()
          | Error `Insufficient_capacity -> Error (Group_capacity gid)
          | Error `Last_vnode ->
              (* Unreachable: vnode_total > 1 and the sole group holds all
                 vnodes, or Vg > Vmin >= 1. *)
              assert false
      end

let params t = t.params
let vnode_count t = t.vnode_total
let group_count t = Gmap.cardinal t.groups

let gideal t =
  Metrics.gideal ~vnodes:t.vnode_total ~vmax:(Params.vmax t.params)

let group_splits t = t.splits
let groups t = List.map snd (Gmap.bindings t.groups)
let find_group t g = Gmap.find_opt g t.groups

let vnodes t =
  groups t |> List.map Balancer.vnodes |> Array.concat

let quotas t =
  let space = t.params.Params.space in
  Array.map (Vnode.quota space) (vnodes t)

(* Equivalent to [Metrics.sigma_percent (quotas t)] but allocation-free:
   this runs after every creation when sampling figure curves. *)
let sigma_qv t =
  let n = t.vnode_total in
  if n <= 1 then 0.
  else begin
    let space = t.params.Params.space in
    let ideal = 1. /. float_of_int n in
    let acc = ref 0. in
    Gmap.iter
      (fun _ b ->
        Balancer.iter_vnodes b (fun v ->
            let d = Vnode.quota space v -. ideal in
            acc := !acc +. (d *. d)))
      t.groups;
    100. *. sqrt (!acc /. float_of_int n) /. ideal
  end

let group_quotas t = groups t |> List.map Balancer.quota |> Array.of_list

let sigma_qg t = Metrics.sigma_percent (group_quotas t)

let lpdr t g = Option.map Balancer.lpdr (find_group t g)

let lookup t p = Point_map.find_point t.map p
let map t = t.map
