(** Terminal line charts, so every figure of the paper can be eyeballed
    straight from the experiment binary. *)

type series = { label : string; xs : float array; ys : float array }

val series : label:string -> xs:float array -> ys:float array -> series
(** @raise Invalid_argument if lengths differ or are zero. *)

val render :
  ?width:int ->
  ?height:int ->
  ?x_label:string ->
  ?y_label:string ->
  series list ->
  string
(** Plots the series on a [width]×[height] (default 72×20) character grid
    with axis ranges spanning all series, y-axis tick labels, and a legend
    mapping each series to its glyph.
    Needed by test_report, which inspects the rendered text.
    @raise Invalid_argument on an empty series list. *)

val print : ?x_label:string -> ?y_label:string -> series list -> unit
