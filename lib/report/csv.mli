(** Minimal CSV output (RFC 4180 quoting) for experiment series. *)

val line : string list -> string
(** One CSV record, without the trailing newline. A field containing
    commas, quotes or newlines is quoted. *)

val write : path:string -> header:string list -> string list list -> unit
(** Writes a whole file. *)

val write_columns : path:string -> header:string list -> float array list -> unit
(** Writes columns of equal length as CSV rows ([%.6g]).
    @raise Invalid_argument if column lengths differ or no columns are
    given. *)
