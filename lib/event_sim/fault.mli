(** Seeded fault-injection plan for the simulated cluster network.

    A plan bundles the failure model one run is subjected to: independent
    per-message drop and duplication probabilities, uniform latency jitter,
    slow (gray-failed) snodes, and a crash-stop/restart schedule per snode.
    {!Network.send} consults the plan on every remote message; the runtime
    layers (reliable delivery, crash recovery) consume the crash schedule
    and the down-set. All randomness comes from an internal generator seeded
    at {!create}, so faulty runs stay reproducible bit-for-bit.

    Drop/duplication/jitter rates are mutable so an experiment can turn
    faults off mid-run ("faults cease") and watch the system converge. *)

type t

val create :
  ?drop:float ->
  ?duplicate:float ->
  ?jitter:float ->
  ?crashes:(int * float * float) list ->
  seed:int ->
  unit ->
  t
(** [create ~seed ()] builds a fault plan. [drop] and [duplicate] are
    per-message probabilities (default 0); [jitter] is the maximum extra
    delivery latency in seconds, drawn uniformly per delivery (default 0);
    [crashes] lists [(snode, at, back_at)] crash-stop/restart windows in
    virtual time (consumed by the runtime hosting the snodes). Windows are
    half-open [\[at, back_at)]: two windows for the same snode may share an
    endpoint but must not overlap (a second overlapping window would
    silently shadow the first), and duplicates are rejected.
    @raise Invalid_argument on probabilities outside [0, 1], negative
    jitter, crash windows without [0 <= at < back_at], or overlapping or
    duplicate crash windows for the same snode. *)

(** {2 Mutable fault rates} *)

val set_drop : t -> float -> unit
val set_duplicate : t -> float -> unit
val set_jitter : t -> float -> unit

(** {2 Node state} *)

val set_slow : t -> int -> float -> unit
(** [set_slow t s factor] marks snode [s] as gray-failed: it still
    processes every message, but with service time inflated by [factor]
    (the network stretches the delivery latency of traffic landing on [s]
    by the factor). [factor] must be finite and [>= 1]; setting again
    replaces the previous factor.
    @raise Invalid_argument on a factor below 1, a non-finite factor, or a
    negative snode. *)

val clear_slow : t -> int -> unit
(** Restore normal service time for a snode; a no-op when it was not slow. *)

val slow_factor : t -> dst:int -> float
(** The service-time factor for deliveries landing on [dst]: the value set
    by {!set_slow}, or [1.] when the snode is healthy. Consulted by
    {!Network.send} on every remote delivery. *)

val set_down : t -> int -> unit
(** Mark a node crashed: deliveries to it are absorbed (dropped and
    counted) until {!set_up}. *)

val set_up : t -> int -> unit

val crash_plan : t -> (int * float * float) list
(** The [(snode, at, back_at)] schedule given at {!create}. *)

(** {2 Network hooks} — called by {!Network.send}. Each call may advance the
    internal generator and bump the counters. *)

val cut : t -> bool
(** [true] when the message is to be dropped at send time (drop roll);
    counted in {!drops}. *)

val duplicate : t -> bool
(** [true] when the message is to be delivered twice; counted in
    {!duplicates}. *)

val delay_noise : t -> float
(** Extra delivery latency, uniform in [\[0, jitter)]. *)

val absorb : t -> dst:int -> bool
(** [true] when [dst] is down at delivery time: the message vanishes;
    counted in {!drops}. *)

(** {2 Counters} *)

val drops : t -> int
(** Messages lost so far (drop rolls and deliveries absorbed by a down
    node). *)

val duplicates : t -> int
(** Extra deliveries injected so far. *)
