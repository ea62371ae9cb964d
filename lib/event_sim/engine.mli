(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue. Callbacks scheduled
    at a virtual time run in [(time, insertion)] order; a callback may
    schedule further events. Time never flows backwards.

    The queue is a struct-of-arrays binary heap ({!Heap}): times unboxed in
    a float array, insertion numbers and payload-slot ids in int arrays,
    callbacks in a slot pool. The clock is a flat float. Scheduling costs
    the caller's closure and nothing per queue entry; {!step} and {!run}
    allocate nothing themselves.

    One primitive makes a callback cancellable: {!push} queues it and
    returns the queue's payload slot, and {!clear} empties a slot that
    still holds that callback. A caller that keeps the slot, an armed flag
    and a deadline next to its own state runs a reusable timer with no
    record in the engine: re-arming pushes the same closure again, and a
    superseded entry finds the flag down or the deadline not yet reached.
    The transport's outbox entries and coalescing buffers, and the
    runtime's hinted-handoff and event watchdog timers, are built so.

    Cancellation is lazy on purpose: a cleared or superseded entry stays
    queued and dispatches as a no-op. {!run} therefore advances the clock
    over dead entries, and a callback that later schedules relative to
    {!now} depends on that clock. Removing dead entries eagerly would move
    those times. The entry need not keep its callback, though: {!clear}
    swaps the queued closure for an inert one, so whatever the callback
    captured can be collected long before the dead entry's time comes. *)

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

val pending : t -> int
(** Events not yet dispatched. *)

val dispatched : t -> int
(** Events dispatched since {!create} (cleared entries included: they
    still dispatch, as no-ops). *)

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
