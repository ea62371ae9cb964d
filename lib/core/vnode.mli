(** Virtual nodes (§2.1.2): the coarse-grain balancing unit.

    A vnode owns a set of partitions — dyadic {!Dht_hashspace.Span.t}s that
    all share the group's split level (invariant G3'). The record is mutable
    because ownership changes on every balancing event; mutation is performed
    by {!Balancer} and {!Local_dht} only. *)

open Dht_hashspace

type t = {
  id : Vnode_id.t;
  mutable group : Group_id.t;  (** the group currently containing this vnode *)
  mutable spans : Span.t list;  (** owned partitions, unordered *)
  mutable count : int;  (** [List.length spans], maintained incrementally *)
}

val make : id:Vnode_id.t -> group:Group_id.t -> t
(** A vnode with no partitions yet. *)

val quota : Space.t -> t -> float
(** Fraction of [R_h] covered by the vnode's partitions (the paper's [Qv]).
    All spans of a vnode share one level, so this is
    [count / 2^level]. [0.] when the vnode has no partitions. *)

val add_span : t -> Span.t -> unit
(** Gives one partition to the vnode. *)

val take_span : t -> Span.t
(** Removes and returns one of the vnode's partitions (the "victim
    partition" of the creation algorithm, §2.5 step 4a).
    @raise Invalid_argument if the vnode has no partitions. *)

val split_spans : Space.t -> t -> previous:(Span.t -> unit) -> unit
(** Binary-splits every partition of the vnode, doubling [count]; calls
    [previous] on each pre-split span (so the caller can update routing
    structures). *)
