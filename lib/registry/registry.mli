(** Multiple DHTs coexisting on one cluster (§2.1.1: "a cluster node may
    host several snodes, each one specific to a different DHT") with
    enrollment that tracks each node's {e free} capacity (§6 future work:
    "nodes may dedicate to several different user tasks, with variable
    resource demands... the balancement of a DHT should take into
    consideration its possible coexistence with other parallel/distributed
    applications").

    Each registered DHT gets, per cluster node, a number of vnodes
    proportional to the node's effective capacity — its {!Dht_cluster.Profile}
    score scaled down by the external load currently reported for the node.
    When external load changes, {!retarget} re-apportions: enrollment grows
    by creating vnodes and shrinks by removing them (removals blocked by
    the model's L2 floor are reported, not forced). *)

open Dht_core
module Rng = Dht_prng.Rng

type t

val create : cluster:Dht_cluster.Topology.t -> seed:int -> unit -> t

val cluster : t -> Dht_cluster.Topology.t

val set_external_load : t -> node:int -> float -> unit
(** [set_external_load t ~node f] reports that fraction [f] of the node's
    resources is consumed by other applications (0 = idle, 0.9 = mostly
    busy). Takes effect at the next {!retarget}.
    @raise Invalid_argument unless [0 <= f < 1]. *)

val add_dht :
  t -> name:string -> pmin:int -> vmin:int -> total_vnodes:int -> unit
(** Registers a DHT and enrolls every node proportionally to its current
    effective share.
    @raise Invalid_argument if the name is taken or [total_vnodes] is below
    the per-node floor. *)

val dht : t -> name:string -> Local_dht.t
(** The underlying DHT (for lookups, metrics, audits).
    @raise Not_found if unknown. *)

type retarget_report = {
  added : int;  (** vnodes created to raise enrollments *)
  removed : int;  (** vnodes removed to lower enrollments *)
  blocked : int;  (** removals refused by the model (L2 floor/capacity) *)
}

val retarget : t -> name:string -> total_vnodes:int -> retarget_report
(** Re-apportions the DHT's [total_vnodes] to the current effective shares
    and applies the difference (creations, then best-effort removals).
    @raise Not_found if unknown. *)

val tracking_error : t -> name:string -> float
(** RMS over nodes of [|quota/effective_share - 1|] — how well the DHT's
    placement tracks the free capacity. *)
