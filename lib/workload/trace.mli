(** Arrival traces for join/creation workloads. *)

module Rng = Dht_prng.Rng

val uniform : n:int -> period:float -> float array
(** One arrival every [period] seconds, starting at [period].
    @raise Invalid_argument if [n < 0] or [period <= 0.].
    Needed by test_workload (arrival spacing). *)

val poisson : rng:Rng.t -> n:int -> rate:float -> float array
(** [n] Poisson arrivals with the given rate (per second); sorted.
    @raise Invalid_argument if [n < 0] or [rate <= 0.]. *)
