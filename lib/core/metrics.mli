(** The paper's quality metrics (§2.3, §3.5, §4.2.1).

    All sigmas are {e relative} standard deviations against the {e ideal}
    average (1/N for N quota holders), expressed in percent, using the
    population convention — exactly the quantity plotted in figures 4, 6, 8
    and 9. *)

val sigma_percent : float array -> float
(** [sigma_percent quotas] is [100 · σ(q, 1/n) / (1/n)] where [n] is the
    array length — σ̄(Qv, Q̄v) when applied to vnode quotas, σ̄(Qg, Q̄g)
    when applied to group quotas, σ̄(Qn, Q̄n) for physical-node quotas.
    Returns [0.] for arrays of length 0 or 1. *)

val sigma_counts_percent : int array -> float
(** σ̄(Pv, P̄v) over partition counts — valid as a quality metric only under
    the global approach, where all partitions share one size (§2.4).
    Needed by test_metrics and test_global, the reference for the §2.4
    equivalence σ̄(Qv) = σ̄(Pv). *)

val gideal : vnodes:int -> vmax:int -> int
(** The ideal number of groups after [vnodes] creations (figure 7): 1 while
    [V <= Vmax], doubling each time [V] crosses a power-of-two boundary,
    i.e. [2^max(0, ceil(log2 V) - log2 Vmax)].
    @raise Invalid_argument if [vnodes < 1] or [vmax] is not a positive
    power of two. *)
