(** Labeled metrics registry.

    A registry names every instrument with a metric name plus an ordered
    list of [(label, value)] pairs — ["net.messages", [("tag", "prepare")]]
    — and hands out mutable handles ({!counter}, {!gauge}, {!histogram}).
    Asking twice for the same (name, labels) returns the same instrument,
    so independent call sites accumulate into one series. Handles are plain
    records: the hashtable lookup happens once at registration, never on
    the hot increment/observe path.

    Rendering is deliberately dumb and deterministic: {!rows} sorts by
    (name, labels) so tables and CSV files diff cleanly across runs. *)

type t

type counter
type gauge

val create : unit -> t

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Find-or-create the counter named [name] with [labels].
    @raise Invalid_argument if the (name, labels) pair is already
    registered as a different instrument kind. *)

val inc : counter -> int -> unit
(** Add to the counter (negative increments are allowed: some counters
    track outstanding work). *)

val gauge : t -> ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit

val histogram :
  t ->
  ?labels:(string * string) list ->
  ?lo:float ->
  ?growth:float ->
  ?bins:int ->
  string ->
  Histogram.t
(** Find-or-create a log-bucketed histogram (see {!Histogram.create} for
    the geometry defaults). The geometry arguments only matter on first
    registration; later calls return the existing histogram unchanged. *)

val is_empty : t -> bool

val merged : t -> ?labels:(string * string) list -> string -> Histogram.t option
(** The {!Histogram.merge} of every shard registered under [name] whose
    label set includes all of [labels] (default: every shard) — the one
    sanctioned way for reports to derive quantiles, guaranteeing they
    agree with the per-shard rows the CSV carries. [None] when nothing
    matching was registered (a single matching shard is returned as-is;
    treat the result as read-only). *)

type row = {
  name : string;
  labels : (string * string) list;
  kind : string;  (** ["counter"], ["gauge"] or ["histogram"] *)
  count : int;  (** observations ([1] for counters and gauges) *)
  value : float;  (** counter value, gauge value, or histogram mean *)
  p50 : float;  (** [nan] for counters and gauges *)
  p99 : float;
  max : float;
}

val rows : t -> row list
(** Every registered instrument, sorted by (name, labels). *)

val to_table : t -> Dht_report.Table.t
(** The standard post-run report: columns [metric], [labels], [kind],
    [count], [value], [p50], [p99], [max]. Histograms render latencies in
    seconds exactly as observed — no unit scaling happens here. *)

val csv_header : string list

val csv_rows : t -> string list list
(** Rows matching {!csv_header}, for {!Dht_report.Csv.write}. *)
