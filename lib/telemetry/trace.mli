(** Pluggable structured protocol tracing with virtual timestamps.

    A sink receives {e instant} events and {e spans} (a start time plus a
    duration) stamped with the simulation's virtual clock. The default
    {!noop} sink records nothing and costs nothing: every emission site is
    expected to guard with {!enabled}, so with tracing off no argument
    list, string or closure is ever allocated —

    {[
      if Trace.enabled tr then
        Trace.instant tr ~ts:(Engine.now engine) ~tid:sn.sid
          ~name:"retransmit" [ ("dst", Trace.Int dst) ]
    ]}

    Two writers are provided. [Jsonl] emits one self-contained JSON object
    per line — trivially greppable and diffable. [Chrome] emits the Chrome
    trace-event format (a JSON array of [ph = "X"/"i"] events with
    microsecond timestamps), which {{:https://ui.perfetto.dev}Perfetto}
    and [chrome://tracing] open directly; the [tid] becomes the track, so
    per-snode activity renders as parallel swimlanes.

    Everything printed derives from the virtual clock and the seeded
    simulation, never from wall time, so a trace is byte-identical across
    runs with the same seed — pinned by a test, making traces usable as
    regression oracles. *)

type t

type format = Jsonl | Chrome

type arg = Int of int | Float of float | Str of string | Bool of bool

val noop : t
(** Discards everything; {!enabled} is [false]. *)

val enabled : t -> bool

val to_buffer : ?limit:int -> format -> Buffer.t -> t
(** Collect the trace in memory (used by the determinism tests). [limit]
    (default [0]: unbounded) caps the events the sink accepts; events past
    the cap are counted by {!dropped} instead of written, bounding sink
    growth on long chaos runs.
    Needed by test_obsv, test_replication and test_telemetry (in-memory
    trace sinks). *)

val to_channel : ?limit:int -> format -> out_channel -> t
(** Stream the trace to a channel. {!close} flushes (and for [Chrome]
    terminates the JSON array) but does not close the channel when it is
    [stdout] or [stderr]; any other channel is closed. [limit] as in
    {!to_buffer}. *)

val format_of_path : string -> format
(** [Jsonl] when the filename ends in [.jsonl], [Chrome] otherwise. *)

val instant :
  t -> ts:float -> tid:int -> ?cat:string -> name:string ->
  (string * arg) list -> unit
(** A point event at virtual time [ts] seconds on track [tid] (by
    convention the snode id). [cat] defaults to ["sim"]. *)

val span :
  t -> ts:float -> dur:float -> tid:int -> ?cat:string -> name:string ->
  (string * arg) list -> unit
(** A complete span starting at [ts] lasting [dur] (virtual seconds). *)

val events : t -> int
(** Events emitted so far (always [0] on {!noop}). *)

val dropped : t -> int
(** Events refused by the sink's [limit] cap (always [0] on {!noop} and on
    unbounded sinks). Exported to the metrics registry as
    [trace_dropped_total] by the CLI. *)

val close : t -> unit
(** Terminate the trace (idempotent). Emitting after [close] raises. *)
