(** The local approach (§3): the DHT divided into independently evolving
    groups of vnodes.

    Vnode creation picks a victim group by drawing a uniform hash index and
    routing it (§3.6), so a group is chosen with probability equal to its
    quota. A full group ([Vg = Vmax]) splits into two groups of [Vmin]
    randomly-selected vnodes, one of which (chosen at random) receives the
    newcomer (§3.7). Group identifiers follow the binary-prefix scheme of
    §3.7.1. *)

open Dht_hashspace
module Rng = Dht_prng.Rng

type t

type split_info = {
  parent : Group_id.t;
  left : Group_id.t;
  right : Group_id.t;
  at_vnodes : int;  (** total vnode count of the DHT when the split fired *)
}

type selection =
  | Quota_lookup
      (** §3.6: route a uniform hash index; groups are hit with probability
          equal to their quota (the paper's design). *)
  | Uniform_group
      (** Ablation: pick a live group uniformly at random, ignoring quotas.
          Used to quantify how much the lookup-based selection contributes
          to balance. *)

val create :
  ?space:Space.t ->
  ?on_event:(Balancer.event -> unit) ->
  ?on_group_split:(split_info -> unit) ->
  ?selection:selection ->
  pmin:int ->
  vmin:int ->
  rng:Rng.t ->
  first:Vnode_id.t ->
  unit ->
  t
(** [create ~pmin ~vmin ~rng ~first ()] builds a DHT with one group (group 0)
    containing the vnode [first], which owns the whole hash range as [pmin]
    partitions. [rng] drives victim-group selection and group splitting; it
    is owned by the DHT afterwards. [selection] defaults to
    {!Quota_lookup}. *)

val add_vnode : t -> id:Vnode_id.t -> Vnode.t
(** Creates a vnode per §3.6/§3.7 and rebalances its victim group.
    Equivalent to {!select_victim} on a fresh uniform point followed by
    {!add_vnode_routed} (under the default {!Quota_lookup} selection).
    @raise Invalid_argument if a vnode with this id already exists. *)

val restore :
  ?space:Space.t ->
  ?on_event:(Balancer.event -> unit) ->
  ?on_group_split:(split_info -> unit) ->
  ?selection:selection ->
  pmin:int ->
  vmin:int ->
  rng:Rng.t ->
  groups:(Group_id.t * int * (Vnode_id.t * Dht_hashspace.Span.t list) list) list ->
  unit ->
  t
(** [restore ~groups ()] rebuilds a DHT from persisted state: one
    [(group id, split level, members)] triple per group, each member with
    its partitions. Used by {!Snapshot}. The state is validated
    structurally (full coverage, no overlap, count bounds, level
    consistency); callers wanting the complete invariant battery should run
    {!Audit.check_local} on the result.
    @raise Invalid_argument on any inconsistent state. *)

val find_vnode : t -> Vnode_id.t -> Vnode.t option
(** The live vnode with this canonical name, if any. *)

type removal_error =
  | Last_vnode  (** the DHT cannot become empty *)
  | Group_at_minimum of Group_id.t
      (** the vnode's group is at [Vmin] and may not shrink (invariant L2);
          shrinking further would require a group merge, which the model
          does not define — grow elsewhere first or retire whole groups *)
  | Group_capacity of Group_id.t
      (** the surviving vnodes of the group cannot absorb the partitions
          within [Pmax] *)

val pp_removal_error : Format.formatter -> removal_error -> unit

val remove_vnode : t -> id:Vnode_id.t -> (unit, removal_error) result
(** Departure of a vnode (dynamic leave, §1): its partitions are handed to
    the least-loaded vnodes of its group and the group re-equalizes (see
    {!Balancer.remove_vnode}). While group 0 is the only group it may
    shrink to a single vnode (the L2 exception); otherwise groups never go
    below [Vmin].
    @raise Invalid_argument if no vnode has this id. *)

val select_victim : t -> point:int -> Vnode.t
(** [select_victim t ~point] is the vnode owning the hash index [point] —
    the {e victim vnode} of §3.6; its current group is the victim group.
    @raise Invalid_argument if [point] is outside the space. *)

type creation_report = {
  vnode : Vnode.t;  (** the vnode that was created *)
  victim_group : Group_id.t;  (** group of the victim at selection time *)
  target_group : Group_id.t;  (** group that received the newcomer *)
  split : split_info option;  (** set when the victim group was full *)
  group_members : Vnode.t array;
      (** members of the target group after the creation (the vnodes whose
          snodes take part in the balancing event) *)
}

val add_vnode_routed : t -> id:Vnode_id.t -> victim:Vnode.t -> creation_report
(** The execution half of a creation, for callers (such as the protocol
    simulator) that perform the victim lookup themselves: balances the
    victim vnode's current group, splitting it first if full. *)

val params : t -> Params.t

val vnode_count : t -> int
(** Total vnodes across all groups. *)

val group_count : t -> int
(** [Greal], the current number of groups. *)

val gideal : t -> int
(** [Gideal] for the current vnode count (figure 7). *)

val group_splits : t -> split_info list
(** History of group splits, most recent first. *)

val groups : t -> Balancer.t list
(** The live balancing domains, in ascending group-id order. *)

val find_group : t -> Group_id.t -> Balancer.t option

val vnodes : t -> Vnode.t array
(** All vnodes of the DHT, grouped by group, ascending group-id order. *)

val quotas : t -> float array
(** [Qv] of every vnode (same order as {!vnodes}). *)

val sigma_qv : t -> float
(** σ̄(Qv, Q̄v) in percent — the only valid quality metric under the local
    approach (§3.5). *)

val group_quotas : t -> float array
(** [Qg] per group, ascending group-id order. *)

val sigma_qg : t -> float
(** σ̄(Qg, Q̄g) in percent — quality of the balancement between groups
    (§4.2.1, figure 8). *)

val lpdr : t -> Group_id.t -> Plan.lpdr option
(** One group's LPDR: partition counts keyed by vnode id, the same shape
    as the snode runtime's replicated LPDR copies. *)

val lookup : t -> int -> Span.t * Vnode.t
(** Routes a hash index to its partition and owning vnode. *)

val map : t -> Vnode.t Point_map.t
(** The live routing map (read-only use expected). *)
