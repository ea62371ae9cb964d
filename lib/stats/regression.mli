(** Ordinary least-squares line fitting.

    Used by the experiment harness to characterise curve zones (e.g. the
    near-flat plateau of σ̄(Qv) in the paper's "2nd zone", §4.1.1). *)

type fit = { slope : float; intercept : float; r2 : float }

val fit : xs:float array -> ys:float array -> fit
(** Least-squares fit of [ys] against [xs].
    @raise Invalid_argument if lengths differ, fewer than 2 points are given,
    or all [xs] are equal. *)
