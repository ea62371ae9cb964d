(** Single-run growth simulations: create vnodes/nodes consecutively and
    sample a metric after each creation (§4: "1024 vnodes were consecutively
    created and, after the creation of each vnode, the metric under analysis
    was measured"). Curves have one point per population size, starting at
    1. *)

open Dht_core
module Rng = Dht_prng.Rng

val local_curves :
  pmin:int ->
  vmin:int ->
  vnodes:int ->
  samples:(Local_dht.t -> float) array ->
  Rng.t ->
  float array array
(** Grows a local-approach DHT to [vnodes] vnodes; returns one curve per
    sampling function, each of length [vnodes].
    @raise Invalid_argument if [vnodes < 1]. *)

val local_curve :
  pmin:int ->
  vmin:int ->
  vnodes:int ->
  sample:(Local_dht.t -> float) ->
  Rng.t ->
  float array

val global_curve :
  pmin:int ->
  vnodes:int ->
  sample:(Global_dht.t -> float) ->
  unit ->
  float array
(** Same for the global approach. Deterministic (no RNG is involved). *)

val ch_curve :
  points_per_node:int ->
  nodes:int ->
  Rng.t ->
  float array
(** Joins [nodes] Consistent-Hashing nodes, each with [points_per_node]
    ring points, sampling σ̄(Qn) after each join. *)
