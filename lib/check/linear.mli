(** Consistency checkers for quorum KV histories.

    Every check returns violation messages — an empty list means the
    history passes. The linearizability search is Wing-Gong specialized to
    a register per key: completed operations must all linearize in an
    order consistent with real time; a put without a return (pending, or
    settled as unacknowledged) {e may} have taken effect and the search is
    free to place it anywhere after its invocation, or nowhere.

    The session checks and the durability audit additionally assume values
    are {e unique per key} (each read's value names the put that produced
    it) and that each session issues its operations sequentially. *)

val max_ops : int
(** Per-key operation bound of the search (the state bitmask fits an
    OCaml [int]). *)

val check : History.entry list -> string list
(** Linearizability, checked key by key: one message per key whose history
    is not linearizable. *)

val read_your_writes : History.entry list -> string list
(** A session that completed a put on a key must never again read [None]
    or a value whose put completed strictly before its own put's
    invocation. *)

val monotonic_reads : History.entry list -> string list
(** Within a session, successive reads of a key never regress to a
    strictly older put's value, nor to [None]. *)

val durability : peek:(string -> string option) -> History.entry list -> string list
(** For every key with an acked put: [peek key] (the authoritative copy,
    e.g. {!Dht_snode.Runtime.peek}) must hold the latest acked put's value
    or that of a put not strictly preceding it. [None] is a lost acked
    write. *)

val busy_never_committed :
  ?peek:(string -> string option) -> History.entry list -> string list
(** A put shed with {!Dht_snode.Wire.Busy} was rejected before any replica
    was touched: its value must never be returned by a completed read nor
    (when [peek] is given) appear in the authoritative copy. *)

val full : ?peek:(string -> string option) -> History.entry list -> string list
(** All of the above. *)
