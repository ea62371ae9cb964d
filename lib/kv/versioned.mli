(** Versioned KV cells: the unit of replicated storage.

    Every write is stamped with a {!version} — a logical timestamp, a
    per-coordinator sequence number and the id of the snode that
    coordinated it — and conflicting copies resolve by deterministic
    last-writer-wins: higher timestamp wins, then the higher sequence
    number, then the higher origin id; exact ties keep the incumbent.
    The sequence number is what orders two writes a single coordinator
    stamps within the same virtual-clock tick (the engine can dispatch
    many events at one instant), so a later same-tick overwrite is never
    dropped by an LWW merge. Because every component is totally ordered,
    any two replicas that have seen the same set of writes hold
    byte-identical cells, which is what lets anti-entropy compare
    partitions by digest. *)

type version = {
  ts : float;  (** logical (virtual-clock) timestamp *)
  seq : int;  (** coordinator-local monotonic stamp; orders same-tick writes *)
  origin : int;  (** coordinating snode id, the final tiebreak *)
}

type cell = { value : string; version : version }

val cell : value:string -> ts:float -> ?seq:int -> origin:int -> unit -> cell
(** [seq] defaults to [0] for callers whose [ts] is already monotonic. *)

val newer : version -> version -> bool
(** [newer a b] iff [a] strictly dominates [b]. *)

val merge : mine:cell -> theirs:cell -> cell
(** LWW merge; keeps [mine] unless [theirs] is strictly newer. *)

val merge_opt : cell option -> cell -> cell
(** [merge] against a possibly-absent incumbent. *)

val digest : string -> cell -> int
(** Order-insensitive per-cell digest contribution (fold with [lxor]):
    hashes the key, the version and the value, so any divergence in any
    component shows up in a partition's digest. *)

val size_bytes : cell -> int
(** Wire-size estimate: value bytes plus a 24-byte version. *)
