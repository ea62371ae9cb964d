(** Point-wise averaging of equally-long curves across runs.

    Every figure in the paper is "an average of 100 runs of the same test"
    (§4): each run produces a curve (one sample per created vnode) and the
    plotted series is the per-index mean. *)

type t
(** Accumulator for curves of a fixed length. *)

val create : len:int -> t
(** [create ~len] accepts runs of exactly [len] points.
    @raise Invalid_argument if [len < 0]. *)

val length : t -> int
(** The expected curve length. *)

val runs : t -> int
(** Number of runs folded so far. *)

val add_run : t -> float array -> unit
(** [add_run t curve] folds one run.
    @raise Invalid_argument if [Array.length curve <> length t]. *)

val mean : t -> float array
(** Per-index mean across runs; zeros when no run was added. *)
