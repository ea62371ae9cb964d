(** The global approach (§2): one balancing domain for the whole DHT.

    Every snode holds the GPDR and takes part in every vnode creation; the
    balancing algorithm is {!Balancer} applied to a single group that never
    splits. High balance quality, serialized creations. *)

open Dht_hashspace

type t

val create :
  ?space:Space.t ->
  ?on_event:(Balancer.event -> unit) ->
  pmin:int ->
  first:Vnode_id.t ->
  unit ->
  t
(** [create ~pmin ~first ()] builds a DHT whose first vnode [first] owns the
    whole hash range as [pmin] partitions. [on_event] observes every
    balancing event (partition splits and transfers), e.g. to drive data
    migration. *)

val add_vnode : t -> id:Vnode_id.t -> Vnode.t
(** Creates a vnode and rebalances (§2.5). Returns the new vnode.
    @raise Invalid_argument if a vnode with this id already exists. *)

val find_vnode : t -> Vnode_id.t -> Vnode.t option
(** The live vnode with this canonical name, if any. *)

val restore :
  ?space:Space.t ->
  ?on_event:(Balancer.event -> unit) ->
  pmin:int ->
  level:int ->
  vnodes:(Vnode_id.t * Span.t list) list ->
  unit ->
  t
(** Rebuilds a DHT from persisted state (see {!Snapshot}): one member per
    entry, all partitions at the given split [level].
    @raise Invalid_argument on structurally inconsistent state. *)

val remove_vnode :
  t -> id:Vnode_id.t -> (unit, [ `Insufficient_capacity | `Last_vnode ]) result
(** Departure of a vnode: partitions are handed to the least-loaded
    survivors and the table re-equalizes (see {!Balancer.remove_vnode}).
    @raise Invalid_argument if no vnode has this id. *)

val params : t -> Params.t

val vnode_count : t -> int

val level : t -> int
(** Common split level of all partitions (invariant G3). *)

val vnodes : t -> Vnode.t array
(** Snapshot, in vnode-id order. *)

val counts : t -> int array
(** Partitions per vnode (the GPDR content), in vnode-id order. *)

val quotas : t -> float array
(** [Qv] per vnode, in vnode-id order. *)

val sigma_qv : t -> float
(** σ̄(Qv, Q̄v) in percent — the paper's quality metric. *)

val sigma_pv : t -> float
(** σ̄(Pv, P̄v) in percent; equal to {!sigma_qv} in the global approach
    (§2.4). *)

val gpdr : t -> Plan.lpdr
(** The global partition distribution record: partition counts keyed by
    vnode id. *)

val lookup : t -> int -> Span.t * Vnode.t
(** [lookup t p] routes hash index [p] to its partition and owner.
    @raise Invalid_argument if [p] is outside the space. *)

val map : t -> Vnode.t Point_map.t
(** The live routing map (read-only use expected). *)

val balancer : t -> Balancer.t
(** The single underlying balancing domain. *)
