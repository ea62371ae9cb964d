(** Descriptive statistics over float arrays.

    The paper's quality metric is the {e relative} standard deviation of
    quotas against an {e ideal} mean (§2.3): these helpers make both the
    population σ and the against-an-ideal variants explicit. *)

val sum : float array -> float
(** Compensated (Kahan) summation. *)

val mean : float array -> float
(** Arithmetic mean; [0.] for an empty array. *)

val rel_stddev_about : float array -> about:float -> float
(** The root mean square deviation of [xs] from the fixed value [about],
    divided by [about] — the paper's σ̄(Qv, Q̄v) with Q̄v the ideal
    average rather than the empirical mean. Expressed as a fraction
    (multiply by 100 for %).
    @raise Invalid_argument if [about = 0.]. *)

val percentile : float array -> p:float -> float
(** [percentile xs ~p] with [p] in [\[0, 1\]], linear interpolation between
    order statistics.
    @raise Invalid_argument on an empty array or [p] outside [\[0, 1\]]. *)
