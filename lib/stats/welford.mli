(** Online mean/variance accumulation (Welford's algorithm).

    Numerically stable single-pass accumulation, used by the simulators to
    track metric streams without storing them. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
(** A fresh, empty accumulator. *)

val add : t -> float -> unit
(** [add t x] folds the observation [x] into [t]. *)

val count : t -> int
(** Number of observations so far. *)

val mean : t -> float
(** Arithmetic mean of the observations; [0.] when empty. *)

val stddev_population : t -> float
(** Population standard deviation (divide by [n]); [0.] when fewer than 1
    observation. *)

val stddev_sample : t -> float
(** Sample standard deviation (divide by [n - 1]); [0.] when fewer than 2
    observations. *)

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator equivalent to having folded all
    observations of [a] and [b] (Chan's parallel combination). *)

val pp : Format.formatter -> t -> unit
