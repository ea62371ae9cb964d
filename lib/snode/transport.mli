(** Snode-to-snode transport: transmission batching, reliable delivery and
    backpressure between the snodes of one cluster, over a simulated
    {!Dht_event_sim.Network}. The runtime above it only sends protocol
    messages and receives fresh ones through the [deliver] function given
    at {!create}; every link-layer concern lives here:

    - {b batching}: with a positive [linger], remote messages stage in a
      per-destination coalescing buffer and leave as a single
      {!Wire.Batch} envelope; per-(src, dst) order is kept. The buffer is
      held one window while the destination has frames unacknowledged
      (always, without a fault plan, as nothing is acknowledged there);
      toward a destination that owes nothing it leaves at the current
      instant, once the event that staged it is done (Nagle's rule);
    - {b reliable delivery}: when the network has a fault plan, every
      remote message is framed in a {!Wire.Req} with a per-peer sequence
      number, deduplicated at the receiver, acknowledged cumulatively
      ({!Wire.Ack}) and retransmitted with capped exponential backoff and
      jitter until acknowledged. Under batching the protocol parts of one
      envelope share one frame and the acks ride outside it. A route with
      5 consecutive timeouts is poisoned: probed at the 50 ms cap only
      until the peer answers;
    - {b relayed acks}: a snode that forwards a routed get or put (under a
      fault plan and a linger window) does not send the ack it staged
      toward the walk's origin on its own when that ack is all the buffer
      holds: it rides the forwarded frame, then the executor's reply, home
      in the {!Wire.Req} header ([relay]), and retires the origin's entry
      there without an RTT sample. A forwarded walk then costs three
      frames and two acks. A lost relay costs the origin one
      retransmission, which the forwarder acks directly;
    - {b backpressure}: a positive [max_inflight] bounds each peer's
      transmission window; excess messages wait in a backlog and promote
      in issue order as acks retire window entries;
    - a retry budget (fast retransmissions per message, then rate-limited
      probes) and an adaptive, Jacobson/Karn RTO per route.

    Without a fault plan remote messages go unframed, so a fault-free run
    pays no sequence numbers, acks or timers. Outboxes, dedup windows and
    staged parts model durable state; timers, route suspicions and RTT
    estimates die with a {!crash}.

    Memory follows the traffic in flight, and every timer is built on one
    engine primitive ({!Engine.push}, {!Engine.clear}). An outbox entry
    is its own retransmission timer: it holds its armed flag, the queue
    slot of its latest arming, a flat record of its send time and
    deadline, and one closure made with the entry, which every
    transmission pushes; the ack clears its latest queue entry, so the
    payload is not pinned until the deadline. A coalescing buffer is its
    own flush timer the same way (armed flag, flat deadline, one closure).
    Peers' queue records and coalescing buffers come from one kind of
    per-endpoint pool, an intrusive free list that counts the records it
    made: an idle peer shares one never-written queue record, and a
    destination is bound only while it holds a buffer; a timer flush that
    empties the buffer gives it back, binding and all. The bindings sit
    in an open-addressing index that allocates only to grow, so staging
    toward a destination again allocates nothing. *)

module Engine = Dht_event_sim.Engine
module Network = Dht_event_sim.Network

type t

val rto_cap : float
(** Ceiling of every retransmission delay, and the probe cadence of a
    poisoned route: 50 ms. *)

val create :
  Engine.t ->
  Network.t ->
  rngs:Dht_prng.Rng.t array ->
  rto:float ->
  retry_budget:int ->
  adaptive_rto:bool ->
  max_inflight:int ->
  linger:float ->
  metrics:Dht_telemetry.Registry.t option ->
  trace:Dht_telemetry.Trace.t ->
  xmit:(tid:int -> attempt:int -> Wire.msg -> unit) option ->
  deliver:(dst:int -> from:int -> Wire.msg -> unit) ->
  t
(** [create engine net ~rngs ...] connects one endpoint per element of
    [rngs] (endpoint [i] is snode [i]; retransmission jitter draws from
    [rngs.(i)]). Messages are framed for reliable delivery exactly when
    [net] has a fault plan ({!Network.faults}). [rto] is the initial
    retransmission timeout, [retry_budget] the fast retransmissions per
    message (0: unlimited), [adaptive_rto] arms per-route Jacobson/Karn
    estimates, [max_inflight] bounds each peer's window (0: unbounded)
    and [linger] is the coalescing window (0: batching off); the runtime
    validates them ({!Runtime.create}). With [metrics], the histograms
    [runtime.rto.delay] and [runtime.batch.occupancy] are registered. With
    an enabled [trace], [retransmit]/[retry.probe]/[route.poisoned]
    instants are emitted. [xmit], when given, is called once per envelope
    put on the network (each attempt of a frame), with the envelope as
    sent: a {!Wire.Batch} or {!Wire.Req} carries its parts inside.
    [deliver ~dst ~from msg] receives every fresh protocol message at
    snode [dst], once, in per-(src, dst) send order on a fault-free
    network. *)

val send : t -> src:int -> dst:int -> Wire.msg -> unit
(** Send a protocol message. [src = dst] is a loopback delivery that
    skips every queueing layer and is never retransmitted. A loopback that
    lands while its endpoint is down is not absorbed: it goes up to
    [deliver] all the same (exactly once), and the caller must keep it
    until the snode restarts (the runtime parks it). *)

val crash : t -> int -> unit
(** Take a snode's endpoint down: it absorbs every remote delivery and its
    timers stop; durable queues are kept. *)

val restart : t -> int -> unit
(** Bring an endpoint back: everything still unacknowledged is re-sent
    (through the window when it is bounded) and staged buffers re-arm
    their flush timers by the hold rule staging uses, in ascending
    destination order. *)

val flush_lingering : t -> unit
(** Force every up endpoint's staged coalescing buffers onto the wire now,
    in (snode, destination) order. *)

val admission_estimate : t -> src:int -> set:int list -> need:int -> float
(** Estimated time for [src] to collect [need] answers from [set]: the
    [need]-th smallest per-route estimate, each a smoothed round trip
    ([rto] before any sample) scaled by the route's queue depth and
    timeout strikes; [src] itself costs 0. *)

val queue_depth : t -> int -> int
(** A snode's egress pressure, as its load summary reports it: outbox
    plus backlog lengths over all its peers (a backlogged message is also
    in the outbox, so it weighs twice). *)

val audit : t -> string list
(** Window bookkeeping findings: every peer's inflight count must match
    its outbox and stay within [max_inflight]. Also the footprint rule:
    a peer's drained dedup window and backlog, and its drained outbox
    unless that table grew, are released back to the shared empty
    sentinel, and an idle peer (every queue released, route unsuspected)
    holds no private queue record. One rule for every shared sentinel
    (the empty outbox, dedup window and backlog, the zero RTT estimate,
    the idle queue record and the empty buffer, relay slot included): it
    was never written.
    One rule for both pools: every record an endpoint's pool made is free
    or bound, and free plus bound adds up to made. Free queue records are
    blank; a free buffer is unbound, empty, disarmed and holds no relay.
    A destination is bound only to a taken buffer that names exactly it
    and holds a part or awaits the queued timer arming that gives it
    back; one with staged parts on an up endpoint has an armed flush
    timer, and one holding a relay has a part for it to ride. No endpoint carries a relay outside a delivery.
    Empty when sound. *)

(** A broken pool or sentinel, planted by {!plant_pool_fault}. *)
type pool_fault =
  | Leak  (** a destination drops its buffer without freeing it *)
  | Share  (** a second destination is bound to another's buffer *)
  | Arm_free  (** the free list's head timer is armed *)
  | Disarm_staged  (** a buffer with staged parts has its timer disarmed *)
  | Leak_queues  (** a peer drops its queue record without freeing it *)
  | Write_sentinel
      (** the shared zero RTT estimate is written; every transport shares
          it, and planting this again undoes it *)
  | Relay_free  (** the free list's head buffer holds a relayed ack *)
  | Relay_sentinel
      (** a relayed ack is written into the shared empty buffer; planting
          this again undoes it *)
  | Bind_free
      (** the next snode, holding no buffer, is bound to the free list's
          head *)
  | Keep_empty
      (** the next snode, holding no buffer, takes one that holds no part
          and awaits no flush: what a timer flush that kept the binding
          would leave *)

val plant_pool_fault : t -> int -> pool_fault -> unit
(** [plant_pool_fault tr sid fault] breaks snode [sid]'s pools (or a
    shared sentinel) as [fault] says, on some record in the state it
    needs, so that {!audit} must report it. Needed by test_transport,
    which checks that the audit catches each fault.
    @raise Invalid_argument when no record is in that state. *)

type counters = private {
  mutable timeouts : int;
      (** retransmission timeouts, plus protocol timeouts noted by the
          runtime ({!note_timeout}) *)
  mutable retransmits : int;  (** fast retransmissions *)
  mutable probes : int;  (** rate-limited retransmissions past the budget *)
  mutable backpressured : int;  (** messages parked by a full window *)
  mutable reliable_msgs : int;  (** messages entered into reliable delivery *)
  mutable outbox_peak : int;  (** deepest any peer outbox has been *)
}

val counters : t -> counters
(** The live counters (read-only outside this module). *)

val note_timeout : t -> unit
(** Count one protocol-level timeout in {!counters}[.timeouts]. *)

type peer_sample = {
  ps_observer : int;  (** the snode whose estimator this is *)
  ps_peer : int;
  ps_srtt : float;  (** smoothed RTT toward the peer, 0 if no sample *)
  ps_rttvar : float;
  ps_strikes : int;  (** consecutive timeout strikes (suspicion level) *)
  ps_suspect : bool;  (** route poisoned *)
  ps_outbox : int;  (** unacknowledged reliable messages toward the peer *)
  ps_backlog : int;  (** messages parked by the inflight window *)
}

val peer_samples : t -> peer_sample list
(** Every endpoint's per-peer estimator state, sorted by (observer, peer). *)
