(** Operation histories for the consistency checkers.

    A recorder that turns the runtime's {!Dht_snode.Runtime.Oplog} event
    stream into a list of operation entries: invocation time, return time
    (when the operation completed) and outcome. Sessions are identified by
    the snode the operation was issued [via].

    The recorder is a columnar, append-only store: one row per [Invoke],
    in invocation order, with four columns: a meta word packing the key's
    id, the session (when it fits 21 bits) and the flags (put,
    has-result, returned, failed, shed, side), the invocation and return
    times (unboxed floats), and the value (a put's value or a get's
    result, shared with the runtime, not copied). Rows are appended in
    fixed-size chunks, so a column is never copied or doubled as the
    history grows. A row costs 4 words, against about 27 for a hash table
    of entry records.

    There is no token column and no token index per row. The runtime's
    tokens increase with the rows, and token - row changes only where a
    token was taken without an [Invoke] (a range read's or a removal's);
    a sorted array holds one (first row, token - row) breakpoint per such
    gap, and an outcome event finds its row by binary search over it. An
    [Invoke] whose token is not above the last one covered, or whose
    session does not fit 21 bits, keeps its token and session in a small
    side table instead, so any unique tokens and any sessions are
    recorded exactly.

    Keys are interned: the history keeps one string per distinct key, the
    one its first row carried, in an array of chunks indexed by key id,
    found through an open-addressing table of ids. A client that builds a
    fresh key string per operation (as
    {!Dht_workload.Keygen.Population.nth} does) therefore costs no string
    per row once the operation settles; each distinct key costs its string,
    one array slot and 1.33 to 2.67 table slots. Put values are kept as
    given. Entries are built only when {!entries} is called. *)

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
