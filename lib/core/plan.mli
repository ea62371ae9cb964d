(** The paper's balancing decisions (§2.5, §3.7) as pure functions of an
    LPDR.

    This module is the one place that decides which vnodes give or receive
    partitions when a vnode joins or leaves a group, and how a full group
    splits. {!Balancer} executes these decisions on live vnodes (Figures
    4–9); the snode runtime's coordinator takes them from its replicated
    LPDR copy alone and ships them in its prepare messages.

    Every choice among vnodes holding the same number of partitions goes
    to the {e smallest vnode id}. The planner reads that order off its
    input, so every LPDR handed to it must be sorted by vnode id. *)

type lpdr = (Vnode_id.t * int) list
(** A partition distribution record: the partition count of every vnode
    of a group, sorted by vnode id. It is an LPDR (§3.2) under the local
    approach and the GPDR (§2.1.4) under the global one. *)

val move_decreases_sigma : from_count:int -> to_count:int -> bool
(** The paper's step-4 test: does moving one partition from a vnode holding
    [from_count] to one holding [to_count] decrease σ(Pv)? Since the total
    is unchanged, σ decreases iff the sum of squares does, i.e. iff
    [to_count < from_count - 1]. *)

type assignment = { donor : Vnode_id.t; give : int }

type t = {
  split_all : bool;
      (** every vnode first binary-splits its partitions (G4 escape, §2.5) *)
  assignments : assignment list;
      (** how many partitions each donor hands to the newcomer; donors with
          [give = 0] are omitted. Sorted by vnode id. *)
  newcomer_count : int;  (** partitions the newcomer ends with *)
  final_counts : lpdr;  (** resulting LPDR, including the newcomer *)
}

val creation : pmin:int -> counts:lpdr -> newcomer:Vnode_id.t -> t
(** [creation ~pmin ~counts ~newcomer] plans the §2.5 greedy: if every count
    equals [pmin], all vnodes split first (counts double); then one
    partition at a time moves from the most-loaded vnode to the newcomer
    while that decreases σ(Pv).
    @raise Invalid_argument if [counts] is empty, contains the newcomer, or
    any count is outside [\[pmin, 2·pmin\]]. *)

type move = { src : Vnode_id.t; dst : Vnode_id.t; n : int }

type removal = {
  moves : move list;
      (** partition movements: first the departing vnode drains to the
          least-loaded survivors, then max→min equalization transfers.
          Consecutive movements between the same pair are merged; the list
          is in execution order. *)
  removal_counts : lpdr;  (** resulting LPDR, without the departed vnode *)
}

val removal :
  pmin:int ->
  counts:lpdr ->
  leaving:Vnode_id.t ->
  (removal, [ `Last_vnode | `Insufficient_capacity ]) result
(** Plans a departure, the symmetric inverse of creation (the paper does
    not spell it out): each partition of [leaving] goes to the currently
    least-loaded survivor, then partitions move max→min while that
    decreases σ(Pv), so the group ends within one partition of even.
    [`Last_vnode] when [leaving] is alone; [`Insufficient_capacity] when
    the survivors cannot absorb its partitions within [2·pmin].
    @raise Invalid_argument if [leaving] is absent or a count is out of
    bounds. *)

type split = {
  left : lpdr;
  right : lpdr;
  newcomer_left : bool;  (** the newcomer joins [left], else [right] *)
}

val split : rng:Dht_prng.Rng.t -> vmin:int -> lpdr -> split
(** §3.7: a full group ([2·vmin] vnodes) splits into two halves of [vmin]
    randomly selected vnodes, and the newcomer joins one of them at random.
    Draws exactly one {!Dht_prng.Rng.shuffle} of the members (in id order)
    and then one {!Dht_prng.Rng.bool}.
    @raise Invalid_argument unless the LPDR has exactly [2·vmin] entries. *)
