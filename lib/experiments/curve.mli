(** Labelled data series produced by the experiment drivers. *)

type t = { label : string; xs : float array; ys : float array }

val make : label:string -> xs:float array -> ys:float array -> t
(** @raise Invalid_argument if lengths differ or are zero. *)

val of_ys : label:string -> float array -> t
(** x values [1, 2, ...]. *)

val last : t -> float
(** Final y value. *)
