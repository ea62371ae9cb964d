(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue. Callbacks scheduled
    at a virtual time run in [(time, insertion)] order; a callback may
    schedule further events. Time never flows backwards.

    The queue is a struct-of-arrays binary heap ({!Heap}): times unboxed in
    a float array, insertion numbers and payload-slot ids in int arrays,
    callbacks in a slot pool. The clock is a flat float. Scheduling costs
    the caller's closure and nothing per queue entry; {!step} and {!run}
    allocate nothing themselves.

    Cancellation is lazy on purpose: a cancelled or superseded timer keeps
    its queue entry, which dispatches as a no-op. {!run} therefore advances
    the clock over dead entries, and a callback that later schedules
    relative to {!now} depends on that clock. Removing dead entries eagerly
    would move those times. The entry need not keep its callback, though:
    {!cancel} and {!clear} swap the queued closure for an inert one, so
    whatever the callback captured can be collected long before the dead
    entry's time comes.

    Two primitives expose the queue's payload slots: {!push} queues a
    callback and returns its slot, and {!clear} empties a slot that still
    holds a given callback. A caller that keeps its own deadline and armed
    flag next to its state can then run a retransmission-style timer with
    no record in the engine: the transport's outbox entries do. {!timer} is
    the packaged form of the same pattern, built on {!push}. *)

type t

val create : unit -> t
(** A fresh engine at time 0. *)

val now : t -> float
(** Current virtual time (seconds by convention). *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument if [delay < 0.] or is not finite. *)

val at : t -> time:float -> (unit -> unit) -> unit
(** [at t ~time f] runs [f] at absolute virtual [time].
    @raise Invalid_argument if [time] is in the past or not finite. *)

val push : t -> time:float -> (unit -> unit) -> int
(** [push t ~time f] is {!at}, returning the queue's payload slot that
    holds [f] until the entry dispatches or is cleared.
    @raise Invalid_argument if [time] is in the past or not finite. *)

val clear : t -> int -> (unit -> unit) -> unit
(** [clear t slot f] swaps [f] for an inert callback in [slot] when the
    slot still holds [f] (physical equality): a queued entry stops keeping
    [f] and its captures alive, and still dispatches, as a no-op. Once the
    entry has dispatched the slot may hold another entry's callback, which
    the check leaves alone, so a caller need not know whether it has. *)

type handle
(** A cancellable timer. *)

val schedule_cancellable : t -> delay:float -> (unit -> unit) -> handle
(** Like {!schedule}, but the returned handle lets the caller retract the
    callback. Cancellation is lazy: the queue entry remains and is
    dispatched as a no-op at its scheduled time (so {!pending} still counts
    it and {!run} still advances the clock over it). *)

val cancel : handle -> unit
(** Retract a timer. The queue entry stays, but the callback leaves it at
    once: neither the queue nor the handle keeps it alive any longer.
    Cancelling one that already fired (or was already cancelled) is a
    no-op. *)

type timer
(** A reusable cancellable timer. Where {!schedule_cancellable} allocates
    a fresh closure and handle per arming, a [timer] allocates its
    trampoline once; {!arm} only {!push}es a queue entry. Pooled flush
    timers re-arm the same timer for every window. *)

val timer : t -> (unit -> unit) -> timer
(** A disarmed timer bound to [t] that will run the callback when an
    arming fires. *)

val arm : timer -> delay:float -> unit
(** Schedule (or reschedule) the timer to fire at [now + delay]. Re-arming
    supersedes any earlier pending arming (lazy deletion: the stale queue
    entry dispatches as a no-op).
    @raise Invalid_argument if [delay < 0.] or is not finite. *)

val disarm : timer -> unit
(** Retract the pending arming, if any. The timer stays reusable, so its
    queue entries keep the trampoline that runs the callback. *)

val armed : timer -> bool
(** [true] while an arming is pending. *)

val pending : t -> int
(** Events not yet dispatched. *)

val dispatched : t -> int
(** Events dispatched since {!create} (cancelled timers included: their
    no-op queue entries are still dispatched). *)

val max_pending : t -> int
(** High-water mark of the event-queue depth — the telemetry layer exposes
    it as a gauge to spot event storms. *)

val run : ?until:float -> t -> unit
(** Dispatches events in order until the queue drains or the next event lies
    beyond [until]. The clock advances to each dispatched event's time.
    @raise Past_horizon if the next event lies beyond the horizon (and not
    beyond [until]); that event stays queued. *)

exception Past_horizon of float
(** Carries the horizon a {!run} refused to cross. *)

val set_horizon : t -> float -> unit
(** [set_horizon t h] bounds every later {!run} at virtual time [h]
    (default [infinity]: unbounded): a simulation still busy at [h] fails
    with {!Past_horizon} instead of running on. A liveness check for
    callers that expect the simulation to quiesce.
    @raise Invalid_argument if [h] is NaN. *)

val step : t -> bool
(** Dispatches exactly one event; [false] if the queue was empty. *)
