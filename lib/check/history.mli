(** Operation histories for the consistency checkers.

    A recorder that turns the runtime's {!Dht_snode.Runtime.Oplog} event
    stream into a list of operation entries: invocation time, return time
    (when the operation completed) and outcome. Sessions are identified by
    the snode the operation was issued [via].

    The recorder is a columnar, append-only store: one row per [Invoke],
    in invocation order, with columns for the session and flags packed in
    one int (put, has-result, returned, failed, shed), the invocation and
    return times (unboxed floats), the key and the value (a put's value or
    a get's result, shared with the runtime, not copied). Rows are
    appended in fixed-size chunks, so a column is never copied or doubled
    as the history grows. A token-to-row index, dense over the runtime's
    consecutive tokens, routes each outcome event to its row; there is no
    token column, as {!entries} rebuilds each row's token from that index.
    A row costs about 6 words (its 5 columns and its index slot), against
    about 27 for a hash table of entry records.

    Keys are interned: the history keeps one string per distinct key, the
    one its first row carried, found through an open-addressing table of
    row numbers. A client that builds a fresh key string per operation (as
    {!Dht_workload.Keygen.Population.nth} does) therefore costs no string
    per row once the operation settles; each distinct key costs its string
    and 1.33 to 2.67 table slots. Put values are kept as given. Entries
    are built only when {!entries} is called. *)

module Runtime := Dht_snode.Runtime

type op =
  | Put of { key : string; value : string }
  | Get of { key : string; result : string option }

type entry = {
  token : int;
  session : int;  (** the [via] snode *)
  op : op;
  inv : float;  (** invocation (virtual) time *)
  ret : float option;  (** completion time; [None] while pending *)
  failed : bool;  (** a put settled as unacknowledged *)
  shed : bool;
      (** rejected with {!Dht_snode.Wire.Busy} by admission control —
          failed, and additionally guaranteed to have had no effect
          anywhere (implies [failed]) *)
}

val key : entry -> string

val completed : entry -> bool
(** [ret <> None]: the operation returned to the caller. A failed or
    pending put may still have taken partial effect. *)

type t

val create : unit -> t

val attach : t -> Runtime.t -> unit
(** Install this history as the runtime's operation recorder. *)

val feed : t -> Runtime.Oplog.event -> unit
(** Record one event directly; {!attach} feeds every runtime event here.
    [Invoke] tokens must be unique; outcome events on a token with no
    [Invoke] yet are ignored.
    Needed by test_history, which pins hand-written histories. *)

val entries : t -> entry list
(** All entries, in invocation order. Each call allocates fresh entry
    records (about 20 words per operation, list cell included), so call it
    once per check rather than once per lookup. *)

val by_key : entry list -> (string * entry list) list
(** Entries grouped per key (each group in invocation order), sorted by
    key. *)

val pp_entry : Format.formatter -> entry -> unit
