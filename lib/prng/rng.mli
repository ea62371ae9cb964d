(** Deterministic pseudo-random number generation.

    Every stochastic component of the repository draws its randomness from an
    explicit generator of type {!t}, so that simulations are reproducible
    bit-for-bit given a seed, and multi-run experiments can derive
    statistically independent sub-streams with {!split}.

    The generator is xoshiro256++ (Blackman & Vigna), seeded through
    SplitMix64 as its authors recommend. *)

type t
(** A mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] builds a generator from a 64-bit seed. Distinct seeds give
    independent-looking streams; equal seeds give equal streams. *)

val of_int : int -> t
(** [of_int seed] is [create ~seed:(Int64.of_int seed)]. *)

val copy : t -> t
(** [copy t] is a generator with the same state; advancing one does not
    affect the other. Needed by test_prng (copies replay). *)

val split : t -> t
(** [split t] draws fresh state material from [t] and returns a new generator
    whose stream is independent of the subsequent output of [t]. Used to give
    each run of a multi-run experiment its own stream. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output.
    Needed by test_alloc (golden values) and test_prng. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive;
    rejection sampling removes modulo bias.
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)], with 53 bits of precision. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place, uniformly (Fisher–Yates). *)

val sample : t -> 'a array -> k:int -> 'a array
(** [sample t a ~k] draws [k] distinct elements of [a] uniformly at random
    (partial Fisher–Yates); the order of the result is random. [a] is not
    modified.
    @raise Invalid_argument if [k < 0] or [k > Array.length a].
    Needed by test_prng (uniformity of the draw). *)

val exponential : t -> rate:float -> float
(** [exponential t ~rate] draws from the exponential distribution with the
    given [rate] (mean [1. /. rate]). Used for Poisson arrival processes.
    @raise Invalid_argument if [rate <= 0.]. *)

val pp : Format.formatter -> t -> unit
(** Prints the current internal state, for debugging.
    Needed by test_alloc (the golden seeded state). *)
