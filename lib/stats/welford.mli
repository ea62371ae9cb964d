(** Online mean accumulation (Welford's update).

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

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator equivalent to having folded all
    observations of [a] and [b] (Chan's parallel combination). *)
