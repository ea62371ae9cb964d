(** Log-bucketed histograms for latency and hop-count distributions.

    Unlike {!Dht_stats.Histogram} (fixed-width bins over a closed range),
    buckets here grow geometrically from [lo]: bucket [i] covers
    [\[lo·growth^i, lo·growth^(i+1))], so a single histogram spans
    microseconds to minutes with bounded relative error. The exact mean
    rides along in a {!Dht_stats.Welford} accumulator, so [mean] does not
    suffer bucketing error.

    Two histograms with the same geometry can be {!merge}d (bucket-exact,
    associative on counts), which is what makes per-shard collection and
    post-run aggregation safe. *)

type t

val create : ?lo:float -> ?growth:float -> ?bins:int -> unit -> t
(** [create ()] covers [\[lo, lo·growth^bins)] with [bins] geometric
    buckets. Defaults: [lo = 1e-6] (1 µs), [growth = 2.], [bins = 64] —
    enough for any virtual-time latency this repo produces. Observations
    in [\[0, lo)] count as underflow, beyond the top edge as overflow;
    both participate in totals and quantiles.
    @raise Invalid_argument if [lo <= 0.], [growth <= 1.] or [bins <= 0]. *)

val observe : t -> float -> unit
(** Record one observation.
    @raise Invalid_argument on negative or non-finite values. *)

val count : t -> int
(** Total observations, including under- and overflow. *)

val sum : t -> float

val mean : t -> float
(** Exact mean (Welford), [0.] when empty. *)

val max_value : t -> float
(** Largest observation; [nan] when empty. *)

val buckets : t -> (float * float * int) list
(** Non-empty buckets as [(lo, hi, count)], in increasing order; underflow
    appears as [(0., lo, n)] and overflow as [(top, infinity, n)]. Bucket
    [i] is the half-open range [\[lo·growth^i, lo·growth^(i+1))]: a
    boundary value lands in the bucket whose lower edge it equals, which
    is pinned by tests against floating-point drift in the log
    computation.
    Needed by test_telemetry (bucket boundaries and merges). *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [\[0, 1\]]: the upper edge of the bucket
    holding the [q]-th ranked observation — a conservative (over-)estimate,
    monotone in [q]. Underflow resolves to [lo]; overflow to the largest
    observation. [nan] when empty.
    @raise Invalid_argument if [q] is outside [\[0, 1\]]. *)

val merge : t -> t -> t
(** Bucket-wise sum into a fresh histogram. Counts merge exactly (and thus
    associatively); mean/stddev merge by Welford combination.
    @raise Invalid_argument if the two histograms differ in shape. *)

val pp : Format.formatter -> t -> unit
