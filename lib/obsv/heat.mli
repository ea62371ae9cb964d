(** Time-decayed access-heat accumulators and skew summaries.

    A {!cell} is an exponentially-decayed counter over {e virtual} time:
    each {!charge} first decays the stored value by [exp (-dt / tau)] and
    then adds the access weight, so the cell tracks "recent load" with a
    time constant [tau] without any periodic sweep — exactly the cheap,
    continuously maintained statistic load-aware rebalancing needs. The
    runtime keys one cell group per partition (reads / writes / replica
    traffic / bytes); this module is deliberately key-agnostic so it stays
    free of simulator dependencies. *)

type cell

val cell : tau:float -> cell
(** A fresh accumulator with decay time-constant [tau] (virtual seconds).
    @raise Invalid_argument when [tau <= 0]. *)

val charge : cell -> now:float -> ?weight:float -> unit -> unit
(** Record one access of [weight] (default [1.]) at virtual time [now].
    Out-of-order charges (a [now] before the last one) are accepted and
    simply skip the decay step. *)

val value : cell -> now:float -> float
(** The decayed heat as of [now] — never negative, monotonically
    decreasing between charges. *)

val count : cell -> int
(** Raw (undecayed) number of charges. *)

val gini : float array -> float
(** Gini coefficient of a load vector: [0] for perfectly even load
    (or an empty / all-zero vector), approaching [1] as load concentrates
    on one element. *)

val sigma_pct : float array -> float
(** Relative standard deviation (σ / mean, in percent) of a load vector —
    the same σ̄ shape the paper's balance figures use, applied to load. *)
