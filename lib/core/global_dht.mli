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

val remove_vnode :
  t -> id:Vnode_id.t -> (unit, [ `Insufficient_capacity | `Last_vnode ]) result
(** Departure of a vnode: partitions are handed to the least-loaded
    survivors and the table re-equalizes (see {!Balancer.remove_vnode}).
    @raise Invalid_argument if no vnode has this id.
    Needed by test_removal and test_runtime (departure in the global
    model). *)

val params : t -> Params.t

val vnodes : t -> Vnode.t array
(** Snapshot, in vnode-id order. *)

val quotas : t -> float array
(** [Qv] per vnode, in vnode-id order. *)

val sigma_qv : t -> float
(** σ̄(Qv, Q̄v) in percent — the paper's quality metric. *)

val map : t -> Vnode.t Point_map.t
(** The live routing map (read-only use expected). *)

val balancer : t -> Balancer.t
(** The single underlying balancing domain. *)
