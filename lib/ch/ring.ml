open Dht_hashspace
module Rng = Dht_prng.Rng
module Imap = Map.Make (Int)

type node = { mutable owned : int }

type t = {
  space : Space.t;
  rng : Rng.t;
  mutable points : int Imap.t;  (* ring position -> node id *)
  nodes : (int, node) Hashtbl.t;
}

let create ?(space = Space.default) ~rng () =
  { space; rng; points = Imap.empty; nodes = Hashtbl.create 64 }

let space t = t.space

(* Wrapping distance along the ring from [a] (exclusive) to [b] (inclusive);
   the full ring when a = b. *)
let arc_len t a b =
  let size = Space.size t.space in
  if a = b then size else ((b - a) mod size + size) mod size

let pred_point t p =
  match Imap.find_last_opt (fun k -> k < p) t.points with
  | Some b -> b
  | None -> Imap.max_binding t.points

let succ_point_incl t p =
  match Imap.find_first_opt (fun k -> k >= p) t.points with
  | Some b -> b
  | None -> Imap.min_binding t.points

let node_state t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> raise Not_found

let add_point t id =
  let node = node_state t id in
  let size = Space.size t.space in
  (* Rejection loop: occupied positions are re-drawn (vanishingly rare). *)
  let rec fresh () =
    let p = Rng.int t.rng size in
    if Imap.mem p t.points then fresh () else p
  in
  let p = fresh () in
  if Imap.is_empty t.points then node.owned <- node.owned + size
  else begin
    let pred_pos, _ = pred_point t p in
    let _, succ_node = succ_point_incl t p in
    let len = arc_len t pred_pos p in
    (node_state t succ_node).owned <- (node_state t succ_node).owned - len;
    node.owned <- node.owned + len
  end;
  t.points <- Imap.add p id t.points

let add_node t ?points ~id ~k () =
  let count = Option.value points ~default:k in
  if count <= 0 then invalid_arg "Ring.add_node: point count must be positive";
  if Hashtbl.mem t.nodes id then invalid_arg "Ring.add_node: duplicate node id";
  Hashtbl.add t.nodes id { owned = 0 };
  for _ = 1 to count do
    add_point t id
  done

let quota t ~id =
  Space.quota t.space (node_state t id).owned

let quotas t =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [] in
  let ids = List.sort Stdlib.compare ids in
  Array.of_list (List.map (fun id -> quota t ~id) ids)

let sigma_qn t =
  let qs = quotas t in
  let n = Array.length qs in
  if n <= 1 then 0.
  else
    let ideal = 1. /. float_of_int n in
    100. *. Dht_stats.Descriptive.rel_stddev_about qs ~about:ideal

let points t = Imap.bindings t.points

let owner t p =
  if not (Space.contains t.space p) then invalid_arg "Ring.owner: point outside space";
  if Imap.is_empty t.points then raise Not_found;
  snd (succ_point_incl t p)
