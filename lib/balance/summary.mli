(** One snode's load summary, as disseminated by the gossip layer and
    collected by the load directories. Version stamps are per-origin and
    monotonic: a summary with a higher [version] supersedes any older one
    from the same [origin], and merges never install a lower stamp, so an
    observer's view of any origin only moves forward. *)

type t = {
  origin : int;  (** the snode this summary describes *)
  version : int;  (** per-origin monotonic stamp; higher = fresher *)
  heat : float;  (** total EWMA heat over the origin's owned partitions *)
  queue : int;  (** unacknowledged outbound messages (egress pressure) *)
  partitions : int;  (** partitions the origin currently owns *)
  stamped : float;  (** virtual time the origin produced the summary *)
}

val make :
  origin:int ->
  version:int ->
  heat:float ->
  queue:int ->
  partitions:int ->
  stamped:float ->
  t

val fresher : t -> t -> bool
(** [fresher a b] — [a] strictly supersedes [b] (same origin assumed). *)
