(** Key-stream generators for data-plane experiments.

    The paper assumes "uniform data distributions in the DHT, and no
    hotspots in the access to data" (§5); the Zipf generator exists
    for the non-uniform extension experiments it lists as future
    work. *)

module Rng = Dht_prng.Rng

val uniform : Rng.t -> string
(** A fresh random 16-hex-character key. *)

module Zipf : sig
  (** Zipf-distributed ranks over [\[1, n\]] with exponent [s], by inverse
      CDF lookup (O(log n) per sample). *)

  type t

  val create : n:int -> s:float -> t
  (** @raise Invalid_argument if [n <= 0] or [s < 0.]. *)

  val sample : t -> Rng.t -> int
  (** A rank in [\[1, n\]]; rank 1 is the most popular. *)

  val key : t -> Rng.t -> string
  (** ["item<rank>"] for a sampled rank. *)

  val expected_frequency : t -> rank:int -> float
  (** Theoretical probability of [rank].
      Needed by test_workload, which compares the sampler with this law. *)
end

module Population : sig
  (** A fixed-size key population with derived members: key [i] is a pure
      function of [i], so populations of millions of keys cost nothing to
      hold — the scaling sweeps draw from a configurable population size
      without materializing it. Deterministic: same size, same keys, in
      every process and run. *)

  type t

  val create : size:int -> unit -> t
  (** [create ~size ()] is the population [{pop-0, …, pop-(size-1)}].
      @raise Invalid_argument if [size < 1]. *)

  val size : t -> int

  val nth : t -> int -> string
  (** The [i]-th member.
      @raise Invalid_argument unless [0 <= i < size]. *)

  val sample : t -> Rng.t -> string
  (** A member drawn uniformly with the caller's seeded generator. *)
end
