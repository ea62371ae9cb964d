open Dht_core
module Rng = Dht_prng.Rng
module Cluster = Dht_cluster

type entry = {
  dht : Local_dht.t;
  mutable enrollment : int array;  (* vnodes per cluster node *)
  next_vnode : int array;  (* per-node allocator for fresh vnode ids *)
}

type t = {
  cluster : Cluster.Topology.t;
  rng : Rng.t;
  external_load : float array;
  dhts : (string, entry) Hashtbl.t;
}

let create ~cluster ~seed () =
  {
    cluster;
    rng = Rng.of_int seed;
    external_load = Array.make (Cluster.Topology.size cluster) 0.;
    dhts = Hashtbl.create 4;
  }

let cluster t = t.cluster

let set_external_load t ~node f =
  if f < 0. || f >= 1. then
    invalid_arg "Registry.set_external_load: fraction outside [0, 1)";
  t.external_load.(node) <- f

let effective_scores t =
  Array.mapi
    (fun i s -> s *. (1. -. t.external_load.(i)))
    (Cluster.Topology.scores t.cluster)

let effective_shares t = Cluster.Enrollment.ideal_shares (effective_scores t)

let entry_exn t name =
  match Hashtbl.find_opt t.dhts name with
  | Some e -> e
  | None -> raise Not_found

let dht t ~name = (entry_exn t name).dht

(* Create one fresh vnode of the named entry on the given node. *)
let spawn e node =
  let id = Vnode_id.make ~snode:node ~vnode:e.next_vnode.(node) in
  e.next_vnode.(node) <- e.next_vnode.(node) + 1;
  ignore (Local_dht.add_vnode e.dht ~id);
  e.enrollment.(node) <- e.enrollment.(node) + 1

let add_dht t ~name ~pmin ~vmin ~total_vnodes =
  if Hashtbl.mem t.dhts name then invalid_arg "Registry.add_dht: name taken";
  let n = Cluster.Topology.size t.cluster in
  let counts =
    Cluster.Enrollment.apportion ~total:total_vnodes (effective_scores t)
  in
  (* The very first vnode bootstraps the DHT; put it on the node with the
     largest allotment. *)
  let first_node = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!first_node) then first_node := i) counts;
  let first = Vnode_id.make ~snode:!first_node ~vnode:0 in
  let dht =
    Local_dht.create ~pmin ~vmin ~rng:(Rng.split t.rng) ~first ()
  in
  let e =
    { dht; enrollment = Array.make n 0; next_vnode = Array.make n 0 }
  in
  e.enrollment.(!first_node) <- 1;
  e.next_vnode.(!first_node) <- 1;
  Hashtbl.add t.dhts name e;
  (* Interleaved creation, round-robin over owed nodes. *)
  let owed = Array.mapi (fun i c -> c - e.enrollment.(i)) counts in
  let left = ref (Array.fold_left ( + ) 0 owed) in
  let cursor = ref 0 in
  while !left > 0 do
    let node = !cursor mod n in
    if owed.(node) > 0 then begin
      spawn e node;
      owed.(node) <- owed.(node) - 1;
      decr left
    end;
    incr cursor
  done

type retarget_report = { added : int; removed : int; blocked : int }

let retarget t ~name ~total_vnodes =
  let e = entry_exn t name in
  let n = Cluster.Topology.size t.cluster in
  let target =
    Cluster.Enrollment.apportion ~total:total_vnodes (effective_scores t)
  in
  let added = ref 0 and removed = ref 0 and blocked = ref 0 in
  (* Grow first so removals have somewhere to shed partitions to. *)
  for node = 0 to n - 1 do
    while e.enrollment.(node) < target.(node) do
      spawn e node;
      incr added
    done
  done;
  for node = 0 to n - 1 do
    if e.enrollment.(node) > target.(node) then begin
      (* Remove this node's highest-numbered vnodes, best effort: the L2
         floor may refuse (reported, not forced). *)
      let excess = ref (e.enrollment.(node) - target.(node)) in
      let candidate = ref (e.next_vnode.(node) - 1) in
      while !excess > 0 && !candidate >= 0 do
        let id = Vnode_id.make ~snode:node ~vnode:!candidate in
        (match Local_dht.find_vnode e.dht id with
        | None -> ()
        | Some _ -> (
            match Local_dht.remove_vnode e.dht ~id with
            | Ok () ->
                e.enrollment.(node) <- e.enrollment.(node) - 1;
                incr removed;
                decr excess
            | Error _ -> incr blocked));
        decr candidate
      done
    end
  done;
  { added = !added; removed = !removed; blocked = !blocked }

let node_quota t ~name ~node =
  let e = entry_exn t name in
  let space = (Local_dht.params e.dht).Params.space in
  Array.fold_left
    (fun acc v ->
      if v.Vnode.id.Vnode_id.snode = node then acc +. Vnode.quota space v
      else acc)
    0.
    (Local_dht.vnodes e.dht)


let tracking_error t ~name =
  let shares = effective_shares t in
  let n = Cluster.Topology.size t.cluster in
  let acc = ref 0. in
  for node = 0 to n - 1 do
    let q = node_quota t ~name ~node in
    let err = (q /. shares.(node)) -. 1. in
    acc := !acc +. (err *. err)
  done;
  sqrt (!acc /. float_of_int n)
