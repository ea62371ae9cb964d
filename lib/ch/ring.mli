(** Consistent Hashing reference model (Karger et al. '97), §4.3.

    The hash range is treated as a ring. Each node draws [k] random points
    ("virtual servers"); the point at position [q] owns the arc from its
    predecessor point (exclusive) to [q] (inclusive), and a node's quota
    [Qn] is the total length of its points' arcs divided by [2^Bh]. Node
    heterogeneity is expressed by giving nodes different numbers of points
    (as in CFS). Quotas are maintained incrementally in exact integer
    arithmetic. *)

open Dht_hashspace
module Rng = Dht_prng.Rng

type t

val create : ?space:Space.t -> rng:Rng.t -> unit -> t
(** An empty ring. [rng] drives point placement and is owned by the ring. *)

val space : t -> Space.t

val add_node : t -> ?points:int -> id:int -> k:int -> unit -> unit
(** [add_node t ~id ~k ()] joins node [id] with [k] ring points ([points]
    overrides [k] for heterogeneous setups — kept separate so sweeps can
    share a common [k] default).
    @raise Invalid_argument if [id] is already present or the effective
    point count is not positive. *)

val quota : t -> id:int -> float
(** Current [Qn] of one node. @raise Not_found if absent. *)

val quotas : t -> float array
(** [Qn] of every node, in ascending node-id order. Sums to 1 when the ring
    is non-empty. *)

val sigma_qn : t -> float
(** σ̄(Qn, Q̄n) in percent, against the ideal average [1/N] — the metric of
    figure 9. *)

val points : t -> (int * int) list
(** All [(position, node id)] ring points in ascending position order —
    exposed for audits that recompute quotas from first principles. *)

val owner : t -> int -> int
(** [owner t p] is the node id responsible for hash index [p].
    @raise Not_found on an empty ring.
    @raise Invalid_argument if [p] is outside the space.
    Needed by test_ch (ownership against the ring's arcs). *)
