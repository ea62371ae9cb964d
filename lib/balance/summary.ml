(* One snode's load summary as gossiped through the cluster. Plain data:
   the runtime fills it from its heat table and outbox depths, the gossip
   and directory layers only compare and forward it. *)

type t = {
  origin : int;  (* the snode this summary describes *)
  version : int;  (* per-origin monotonic stamp; higher = fresher *)
  heat : float;  (* total EWMA heat over the origin's owned partitions *)
  queue : int;  (* unacknowledged outbound messages (egress pressure) *)
  partitions : int;  (* partitions the origin currently owns *)
  stamped : float;  (* virtual time the origin produced the summary *)
}

let make ~origin ~version ~heat ~queue ~partitions ~stamped =
  { origin; version; heat; queue; partitions; stamped }

(* Freshness order between two summaries of the same origin. *)
let fresher a b = a.version > b.version
