(** Aligned plain-text tables for experiment output. *)

type t

val create : headers:string list -> t
(** @raise Invalid_argument on an empty header list. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the headers. *)

val to_string : t -> string
(** The rendered table, columns padded, header underlined. *)

val print : t -> unit
(** [to_string] to stdout, with a trailing newline. *)
