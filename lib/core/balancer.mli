(** The per-group balancing algorithm (§2.5, restricted to one group in the
    local approach, §3.1).

    A balancer owns the vnodes of one group and maintains the group's common
    partition split level (invariant G3'). It executes the decisions of
    {!Plan} on live vnodes: each creation or departure reads the group's
    LPDR, asks {!Plan} which vnodes give how many partitions to whom, then
    moves that many spans, splitting every partition first when the plan
    says so.

    The global approach is this balancer applied to a single group over the
    whole table (built with {!Params.global}). *)

type event =
  | Split of { vnode : Vnode.t; before : Dht_hashspace.Span.t }
      (** [before] was replaced by its two halves, same owner. *)
  | Transfer of { src : Vnode.t; dst : Vnode.t; span : Dht_hashspace.Span.t }
      (** [span] changed owner, boundaries unchanged. *)

type t

val bootstrap :
  params:Params.t ->
  group:Group_id.t ->
  vnode:Vnode.t ->
  notify:(event -> unit) ->
  t
(** [bootstrap] creates the very first group of a DHT: the given (empty)
    vnode receives [Pmin] partitions that tile the whole of [R_h] (level
    [log2 Pmin]). [notify] is invoked on every subsequent balancing event;
    none is emitted for the initial allocation — read it back with {!vnodes}.
    @raise Invalid_argument if [vnode] already owns partitions. *)

val of_vnodes :
  params:Params.t ->
  group:Group_id.t ->
  level:int ->
  notify:(event -> unit) ->
  Vnode.t array ->
  t
(** [of_vnodes ~level vnodes] wraps existing vnodes (keeping their spans)
    into a new balancer after a group split; updates each vnode's [group]
    field.
    @raise Invalid_argument if the array is empty or some vnode count is
    outside [\[Pmin, Pmax\]]. *)

val add_vnode : t -> Vnode.t -> unit
(** Runs the creation algorithm ({!Plan.creation}) for a vnode that
    currently owns no partitions, emitting [Split] and [Transfer] events as
    they happen.
    @raise Invalid_argument if the vnode already owns partitions or its id
    is already a member's. *)

val params : t -> Params.t

val group : t -> Group_id.t

val level : t -> int
(** The common split level [l_g] of all partitions of the group (G3'). *)

val vnode_count : t -> int
(** [Vg], the number of vnodes in the group. *)

val total_partitions : t -> int
(** [Pg], the total number of partitions of the group (a power of two,
    invariant G2'). *)

val vnodes : t -> Vnode.t array
(** Snapshot of the group's vnodes in vnode-id order (fresh array, shared
    vnode records). *)

val iter_vnodes : t -> (Vnode.t -> unit) -> unit
(** Iterates over the group's vnodes without copying (hot path for metric
    sampling). *)

val counts : t -> int array
(** Partition counts per vnode, in vnode-id order. *)

val lpdr : t -> Plan.lpdr
(** The group's LPDR: partition counts keyed by vnode id. *)

val quota : t -> float
(** The group quota [Qg = Pg / 2^lg] (§4.2.1). *)

val remove_vnode : t -> Vnode.t -> (unit, [ `Insufficient_capacity | `Last_vnode ]) result
(** Departure of a vnode (the model's "cluster nodes may dynamically leave
    the DHT"), planned by {!Plan.removal}: the departing vnode's partitions
    go one at a time to the currently least-loaded vnode, followed by
    max→min transfers while they decrease σ(Pv), so the group ends within
    one partition of perfectly even.

    Removal relaxes G5/G5' from "all counts equal [Pmin]" to "all counts
    equal" (same perfect quota balance, possibly at a deeper split level);
    creations remain correct on such states because the split-all trigger
    fires on [Pv = Pmin], not on population counts.

    Errors: [`Last_vnode] when the group would become empty;
    [`Insufficient_capacity] when the surviving vnodes cannot absorb the
    partitions within [Pmax] (only reachable after repeated removals at tiny
    populations — the caller should grow the DHT first).
    @raise Invalid_argument if the vnode is not a member of this group. *)

val transfer_span :
  t ->
  src:Vnode.t ->
  dst:Vnode.t ->
  Dht_hashspace.Span.t ->
  (unit, [ `Src_at_pmin | `Dst_at_pmax | `Not_owner | `Not_member ]) result
(** Policy-driven fine-grain move of one specific partition between two
    vnodes of the group (the §6 future-work hook: reacting to non-uniform
    access). Refuses moves that would violate G4' ([`Src_at_pmin],
    [`Dst_at_pmax]); emits the usual [Transfer] event on success. Note that
    a successful move intentionally trades σ(Pv) balance for whatever the
    caller is optimising — it may un-do G5's perfect balance. *)
