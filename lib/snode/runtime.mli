(** Distributed snode runtime: the paper's architecture (figures 1 and 2)
    as a functional message-level simulation.

    Unlike {!Dht_core.Local_dht} — the centralized oracle, where one data
    structure holds the whole DHT — every snode here owns only its slice of
    the state, exactly as in the deployed system the paper describes:

    - the partitions (and data) of the vnodes it hosts;
    - an LPDR {e copy} for each group one of its vnodes belongs to (§3.2);
    - a routing cache from partitions to vnodes, which {e may go stale} —
      requests are forwarded through possibly-stale caches and retried with
      backoff until placement information converges.

    Vnode creation is the §3.6/§3.7 protocol: the creation request is
    routed to the victim vnode's snode, handed to the victim group's
    manager (the snode hosting the group's smallest member — its request
    queue is the group lock), which plans the balancing from its LPDR copy
    alone ({!Dht_core.Plan}), runs a prepare/commit round among the group's
    snodes, and lets donors stream partitions (with their keys) straight to
    the newcomer's snode. Creations on different groups proceed
    concurrently.

    {!view} exports the distributed state; [Dht_check.Invariants.check_runtime]
    verifies global coverage, LPDR-copy convergence, the model invariants,
    routing-cache bounds and data placement over it. *)

open Dht_core
module Engine = Dht_event_sim.Engine
module Network = Dht_event_sim.Network
module Fault = Dht_event_sim.Fault

type t

type approach =
  | Local of { vmin : int }
      (** the paper's contribution: groups bounded by [Vmin <= Vg <= 2·Vmin],
          balancing events touch one group *)
  | Global
      (** the base model (§2): a single balancing domain — the group never
          splits, the "LPDR" is the GPDR, every creation synchronizes every
          vnode-hosting snode and creations serialize through one queue *)

val create :
  ?link:Network.link ->
  ?pmin:int ->
  ?approach:approach ->
  ?faults:Fault.t ->
  ?rto:float ->
  ?retry_budget:int ->
  ?adaptive_rto:bool ->
  ?max_inflight:int ->
  ?admission_deadline:float ->
  ?ingress_limit:int ->
  ?rfactor:int ->
  ?read_quorum:int ->
  ?write_quorum:int ->
  ?linger:float ->
  ?mt_threshold:int ->
  ?mt_leaf:int ->
  ?metrics:Dht_telemetry.Registry.t ->
  ?trace:Dht_telemetry.Trace.t ->
  ?causal:bool ->
  ?heat:bool ->
  ?heat_tau:float ->
  ?balance:Dht_balance.Policy.t ->
  ?route_cap:int ->
  ?max_hops:int ->
  snodes:int ->
  seed:int ->
  unit ->
  t
(** [create ~snodes ~seed ()] builds a cluster of [snodes] snodes. Snode 0
    bootstraps the DHT with vnode [0.0] holding the whole hash range
    ({!Dht_hashspace.Space.default}); every routing cache starts seeded
    with that placement. Defaults: [pmin = 32],
    [approach = Local { vmin = 16 }], gigabit {!Network.link}.

    A routed operation backs off 1 ms between retries, at most 50 times.
    Both are constants. The bound is a livelock canary and only enforced
    on a reliable network — under a fault plan an operation legitimately
    backs off for as long as a crashed snode stays down, so retries are
    unbounded (still counted by {!retries}).

    Passing [faults] arms the robustness layer: every remote message is
    carried by the reliable request layer of {!Transport} (sequence
    numbers, acknowledgement,
    deduplication, retransmission with exponential backoff from [rto]
    (default 1 ms, at most 50 ms) up to a constant 50 ms cap); a route
    suffering 5 consecutive timeouts (a constant) is poisoned — new
    traffic toward it is queued and probed at the capped cadence until the
    peer answers. Balancing events carry a liveness watchdog re-armed every
    second (a constant). The plan's crash schedule is installed on
    the engine ({!Fault.crash_plan}); every crash must name a restart time
    or retransmission toward the dead snode never ends. Without [faults]
    the runtime behaves {e exactly} as before: same messages, same bytes,
    same clock, same random draws.

    The graceful-degradation knobs all default to off, leaving the legacy
    behaviour bit-for-bit intact. [rto], [retry_budget], [adaptive_rto],
    [max_inflight] and [linger] configure {!Transport}, which owns the
    batching, reliable-delivery and backpressure state they govern.
    [retry_budget] (default 0: unlimited)
    caps the fast retransmissions of any one reliable message: past the
    budget further attempts still go out — a silently-restarted peer must
    eventually hear the message — but only at the 50 ms cap cadence, and
    they count as {e probes}, not retransmissions, so
    [retransmits <= retry_budget * reliable_messages] holds by
    construction ({!overload_stats}). [adaptive_rto] (default false)
    replaces the fixed [rto] ladder base with a per-route Jacobson/Karn
    estimate (SRTT + 4·RTTVAR from samples of never-retransmitted
    messages, floored at [rto], capped at 50 ms): a gray-failed route
    whose true round trip exceeds [rto] stops provoking spurious
    retransmissions. RTT estimates are soft state and die with a crash.
    [max_inflight] (default 0: unbounded) bounds each peer's transmission
    window: excess messages park in a per-peer backlog (counted by
    {!overload_stats}.backpressured) and promote in issue order as acks
    retire window entries. [admission_deadline] (default 0: off) arms
    deadline-aware admission control on quorum operations: a coordinator
    that estimates it cannot assemble the quorum within the deadline —
    from per-route smoothed RTTs scaled by queue pressure and the route's
    graded suspicion level (its timeout strike count, the same scale whose
    top is the poisoning threshold) — sheds the operation {e before}
    touching any replica and answers the origin with an explicit
    {!Wire.Busy}; the op
    settles immediately as unacknowledged (a put's [on_done] never fires,
    a get answers [None]), never a silent drop. [ingress_limit] (default
    0: unbounded) bounds every snode's network ingress queue
    ({!Network.set_ingress_limit}): overload becomes explicit loss for the
    reliable layer to absorb, instead of an ever-growing event queue.

    [rfactor] (default 1: replication off, the original single-copy
    behaviour) keeps every partition on [rfactor] distinct snodes —
    preferring snodes outside the owner group, falling back to its ring
    successors ({!Dht_replication.Placement}). Data operations then run as
    quorum rounds from the issuing snode: a put completes after
    [write_quorum] replicas store the versioned cell, a get after
    [read_quorum] replicas answer (the freshest version wins and stale
    repliers are read-repaired). [read_quorum + write_quorum > rfactor] is
    enforced ({!Dht_core.Params.check_quorum}). A put still short of W
    after a constant 20 ms handoff timeout hints the silent replicas'
    copies to their ring successors (sloppy quorum); the fallback drains
    the hint to its owner when it restarts. A put that cannot assemble W
    even through fallbacks settles as failed one window later ([on_done]
    is never invoked, so the write counts as unacknowledged). Replica
    divergence left by crashes or migrations is repaired by explicit
    {!anti_entropy} rounds. Replica placement commits atomically with
    partition movement: the balancing Commit carries the replica map and,
    when [rfactor > 1], fans out to every snode.

    [linger] (default 0: batching off, byte-identical to the original
    message flow) arms {!Transport}'s batching: every remote message stages
    in a per-destination coalescing buffer and leaves with the others
    staged there as a single {!Wire.Batch} envelope, amortizing the fixed
    envelope cost. The buffer is held [linger] seconds of virtual time
    while its destination owes an ack, and otherwise only until the
    staging event ends; without a fault plan nothing is acknowledged, so
    every buffer is held the full window. Per-(src, dst) delivery order is
    preserved —
    a batch is the FIFO prefix of the stream. Under a fault plan the
    batch's protocol messages share one [Req] frame (one sequence number,
    one retransmission timer, one ack for the whole batch) and acks become
    cumulative and piggybacked: they ride the next outgoing envelope,
    outside the frame, and their [floor] retires every older outstanding
    sequence at once. One network-latency quantum (the link's base
    latency, one hop) is the recommended window; the CLI and benchmarks
    default to it.

    [mt_threshold] (default 128) selects the anti-entropy protocol per
    partition span: a span whose snapshot holds at most [mt_threshold]
    keys is pushed as a legacy flat {!Wire.Repl_digest} (byte-identical
    to the pre-tree protocol at seed scale), a larger one opens a
    Merkle descent with {!Wire.Mt_root}. [0] forces the tree protocol
    everywhere; [max_int] disables it. [mt_leaf] (default 16) bounds
    the keys per hash-tree bucket.

    Passing [metrics] registers latency/hop histograms in the registry
    (observed as the simulation runs): [runtime.route.hops],
    [runtime.op.latency] (label [op=put|get|remove]),
    [runtime.quorum.latency] (label [op=put|get]), [runtime.2pc.prepare]
    (prepare to commit, at the coordinator), [runtime.2pc.event] (label
    [kind=create|remove], plan to completion), [runtime.recovery.downtime],
    [runtime.rto.delay] and [runtime.batch.occupancy] (messages per
    coalesced envelope); pair it with {!record_metrics} after the run
    for the scalar counters. Passing [trace] (default {!Trace.noop})
    streams protocol events — [op]/[2pc.prepare]/[2pc.event]/
    [recovery.downtime] spans, [retransmit]/[route.backoff]/
    [route.poisoned]/[crash] instants — stamped with the virtual clock, on
    track [tid = snode id]. Both are passive: with the defaults the
    runtime's behaviour (messages, bytes, clock, random draws) is
    unchanged, and a trace with the same seed is byte-identical across
    runs.

    [causal] (default false; requires an enabled [trace]) arms causal
    request tracing: every client op mints a trace id (its op token) and a
    root span, and a compact span context (trace id, parent span id, hop
    count — 20 bytes, charged to {!Wire.size_bytes}) rides inside every
    wire frame the op causes, surviving {!Wire.Batch} envelopes,
    reliable-layer retransmission, quorum fan-out, hinted handoff and read
    repair. The runtime then emits parent-linked [cat = "causal"] events —
    [op.begin]/[op.end], [msg.send]/[msg.xmit]/[msg.recv] per wire edge —
    from which {!Dht_obsv.Causal} rebuilds each op's causal tree and
    decomposes its latency into queue / network / service / retransmit
    components that sum exactly to the measurement. Unlike plain [trace],
    [causal] is {e not} passive: frames grow by the context size, so byte
    counts and batch thresholds shift (the simulated timings remain
    deterministic for a given seed).

    [heat] (default false) arms per-partition heat accounting: every data
    access at its executing snode charges time-decayed EWMA counters
    (reads, writes, replica traffic, bytes; time constant [heat_tau]
    seconds of virtual time, default 1.0) keyed by the accessed partition.
    Read the table back with {!heat_rows}; {!record_metrics} exports it as
    labeled [heat.*] series. Passive: counters only.

    [balance] arms the active load balancer (and implies [heat]): snodes
    gossip version-stamped load summaries in push-pull rounds, report to
    hash-located directory snodes that pair heavy reporters with light
    ones, and a proposal triggers a hot-partition {e swap} inside the
    heavy partition's group — the hot partition moves to a group member
    on the light snode, which gives its coldest partition back, so
    per-vnode partition counts (and therefore G4/G5 and the LPDRs) are
    untouched and only placement moves, through the standard
    prepare/commit round under the group lock. Rounds are driven
    explicitly ({!arm_balancer}); creating with [balance] alone changes
    nothing until rounds run.

    [route_cap] (default 0: unbounded, the legacy behaviour) arms the
    scalable routing layer ({!Route}): every snode's routing cache is
    bounded to at most [route_cap] entries — over-cap caches fold their
    coldest sibling leaf-pair into one coarser parent binding (LRU by last
    probe/learn, hole-free, so coverage audits still hold) — and lookups
    run prefix routing over {!Dht_cluster.Fingers} geometry: a cache
    entry at least [ceil(log2 snodes)] levels deep is trusted like legacy
    advice; a coarser entry diverts the {e origin} hop to the point's region
    steward, a deterministic snode that accumulates fine placements for
    the region through refresh rounds ({!arm_route_refresh}) and learns
    corrected-owner hints piggybacked on {!Wire.Put_ack}/{!Wire.Get_reply}
    replies.
    Expected hops stay O(log snodes) while per-snode routing state stays
    O(route_cap). Must be [>= pmin] when positive (a restarting snode
    rebuilds from the [pmin]-span bootstrap placement).

    [max_hops] (default 4, at most {!Route.max_hops_ceiling} = 1,024) is
    the forwarding limit ({!Route.next_hop}): a routed operation
    bouncing through more than [max_hops] stale-cache hops backs off and
    retries. Raise it together with [route_cap] at cluster scale so the
    hop distribution is observable rather than truncated by retries.
    @raise Invalid_argument if [snodes < 1], a parameter is out of range,
    or the crash plan names an unknown snode. *)

val engine : t -> Engine.t

val network : t -> Network.t

val snode_count : t -> int

val vnode_count : t -> int
(** Vnodes whose creation has completed. *)

val create_vnode :
  t -> ?initiator:int -> ?on_done:(unit -> unit) -> id:Vnode_id.t -> unit ->
  unit
(** Issues a creation request from [initiator] (default: the snode named by
    [id]) at the current virtual time. Completion is asynchronous; drive
    the engine with {!run}. [on_done] fires once, when the completion
    notice reaches the initiator (the moment {!completed_creations}
    counts it). *)

val put :
  t -> ?via:int -> ?on_done:(unit -> unit) -> key:string -> value:string ->
  unit -> unit
(** Write issued from snode [via] (default 0): routed to the single owner
    when [rfactor = 1], a quorum round otherwise. If [via] is down the
    quorum round runs from the next live snode instead, so a dead entry
    point never demotes a replicated write to a single copy; only with
    the whole cluster down does the write park until a restart. [on_done]
    fires when the write is acknowledged (owner ack, or W replica acks) —
    the write is then {e durable} under the configured fault model.
    Conflicting writes to the same key resolve by last-writer-wins on the
    versioned cell (issue time, then the coordinator's own monotonic
    sequence, then its snode id) — the sequence component keeps two
    writes stamped by one coordinator in the same engine tick ordered as
    issued.
    @raise Invalid_argument unless [0 <= via < snodes]. *)

val get : t -> ?via:int -> key:string -> (string option -> unit) -> unit
(** Read issued from snode [via]; the callback fires when the owner's
    reply (or the [read_quorum]-th replica reply, whose freshest version
    wins) arrives. Like {!put}, a replicated read whose [via] snode is
    down re-routes to the next live coordinator.
    @raise Invalid_argument unless [0 <= via < snodes]. *)

val range_get :
  t -> ?via:int -> lo:int -> hi:int -> ((string * string) list -> unit) -> unit
(** Quorum range read over the hash interval [[lo, hi)]: the coordinator
    (snode [via], or the next live snode) opens one leg per partition
    intersecting the range, fans each leg to the partition's replica set,
    and completes a leg at [read_quorum] distinct replies (clamped to the
    replicas that exist). Cells merge by last-writer-wins across legs and
    repliers, so the callback's [(key, value)] list — sorted by key — is
    duplicate-free by construction. Range reads are never shed by
    admission control (a busy range would be indistinguishable from an
    empty one) and never appear in the operation log: linearizability is
    checked over point operations only. Per-leg heat is charged to each
    touched partition at every serving replica. With every snode down the
    read fails at once: the callback sees [[]] and {!completed_ranges}
    does not count it.
    @raise Invalid_argument unless [0 <= lo <= hi <= Space.size] and
    [0 <= via < snodes]. *)

val remove_vnode : t -> id:Vnode_id.t -> (bool -> unit) -> unit
(** Departure of a vnode through the message protocol: the request, sent
    from snode 0, reaches the vnode's hosting snode, is handed to its
    group's manager, and — if the model admits it (L2 floor, capacity; see
    {!Dht_core.Local_dht.remove_vnode}) — a prepare/commit round drains the
    departing vnode's partitions (with their keys) to the least-loaded
    survivors and re-equalizes. The callback receives [false] when the
    departure was refused or the vnode does not exist. *)

val run : ?until:float -> t -> unit
(** Drives the simulation until the event queue drains (or [until]). *)

val pending_operations : t -> int
(** Creations and data operations issued but not yet completed. *)

val completed_creations : t -> int

val completed_puts : t -> int

val completed_gets : t -> int

val completed_ranges : t -> int
(** Range reads completed (including empty results; a read failed with
    every snode down is not counted). *)

val retries : t -> int
(** Operations that exhausted the forwarding hop limit and backed off —
    a measure of cache staleness encountered. *)

(** {2 Faults and recovery} *)

val crash_snode : t -> int -> unit
(** Crash-stop the snode now: deliveries to it are absorbed until
    {!restart_snode}. Protocol state is modelled as durable (the 2PC
    stable log); volatile and reset here: retransmission timers, route
    suspicions, the routing cache, the heat cells of the partitions the
    snode owns, and its load-balancer gossip view and directory table
    (the per-snode summary {e version counter} stays durable, so a
    restarted snode's first summary supersedes its pre-crash gossip).
    No-op if already down. *)

val restart_snode : t -> int -> unit
(** Bring a crashed snode back: rebuild the routing cache (bootstrap
    placement overlaid with its own partitions), re-arm retransmission of
    every unacknowledged message, replay work parked while down, and pull
    fresh LPDR copies (epoch-fenced) from each group's manager. No-op if
    already up. *)

type stats = {
  drops : int;  (** messages lost by the fault plan *)
  duplicates : int;  (** extra deliveries injected *)
  timeouts : int;  (** retransmission and balancing-round timeouts *)
  retransmits : int;  (** reliable-layer re-sends *)
  crashes : int;
  recoveries : int;
}

val stats : t -> stats
(** Fault and recovery counters (all zero without a fault plan). *)

type overload_stats = {
  sheds : int;  (** quorum ops refused by admission control *)
  busy_rejections : int;  (** {!Wire.Busy} replies settled at the origin *)
  probes : int;  (** rate-limited retransmissions past the retry budget *)
  backpressured : int;  (** messages parked by a full inflight window *)
  reliable_messages : int;  (** messages entered into reliable delivery *)
  outbox_peak : int;  (** deepest any peer outbox has been *)
  ingress_overflows : int;  (** deliveries refused by the ingress bound *)
  ingress_peak : int;  (** deepest any ingress queue has been *)
}

val overload_stats : t -> overload_stats
(** Degradation-layer counters. [sheds] counts at the coordinator,
    [busy_rejections] at the origin when the Busy reply lands; they agree
    once traffic drains. The retry-budget law
    [retransmits <= retry_budget * reliable_messages] is checkable from
    {!stats}.retransmits and [reliable_messages] here. *)

val queue_audit : t -> string list
(** Structural audit of the bounded queues: every peer's inflight count
    must match its window bookkeeping and stay within [max_inflight].
    Empty when sound. Cheap; safe to call mid-run (e.g. from an explorer
    step or a chaos harness). *)

(** {2 Replication} *)

val peek : t -> key:string -> string option
(** Synchronous test oracle: the value at the partition owner's
    authoritative copy, read directly from the distributed state without
    any messaging. Use it for durability audits; it sees exactly what a
    fault-free quorum read would return. *)

val anti_entropy : t -> unit
(** Schedule one anti-entropy round: every live snode digest-pushes each
    partition it owns to the partition's other replicas (divergent
    replicas pull a full-span sync, merged by last-writer-wins in both
    directions), and routes cells it holds for partitions it no longer
    replicates back to their owner. A no-op when [rfactor = 1]. Drive the
    engine with {!run} afterwards; the round is not self-rescheduling, so
    the event queue still drains. *)

type repl_stats = {
  hints_stored : int;  (** sloppy-quorum cells parked for a dead replica *)
  hints_flushed : int;  (** hints drained to their restarted owner *)
  read_repairs : int;  (** stale repliers repaired by quorum reads *)
  sync_cells : int;  (** cells updated by anti-entropy span syncs *)
  orphans : int;  (** cells routed home after leaving a replica set *)
}

val repl_stats : t -> repl_stats
(** Replication repair counters (all zero when [rfactor = 1]). *)

val plant :
  t -> snode:int -> ?origin:int -> key:string -> value:string -> ts:float ->
  unit -> unit
(** Divergence-injection oracle for tests and benchmarks: stamp
    [(value, ts)] and store the cell straight into [snode]'s tables (its
    own partition if it owns the key's point, its replica table
    otherwise), with no messaging — manufacturing a known replica
    divergence for anti-entropy to find. [origin] (default [snode])
    overrides the version's origin stamp: planting the same
    [(key, value, ts, origin)] on several snodes yields byte-identical
    cells, the converged baseline the anti-entropy benchmark diverges
    from.
    @raise Invalid_argument if [snode] names no snode. *)

val merkle_audit : t -> string list
(** Hash-tree consistency audit, one finding per line. For every live
    snode:
    - no key may be held both as a replica copy and in a partition table
      (the hash tree keeps one cell per key);
    - a private rebuild over the snode's tables, and its live tree if one
      is held, must pass {!Dht_merkle.Merkle.check} (interior hashes
      recomputable from children, counts additive, shape canonical), and
      the live tree must equal the rebuild;
    - the tree's frame for every replicated partition span must equal
      the flat scan digest of that span — the property that lets
      anti-entropy mix tree frames with legacy digests.
    Side-effect free: the anti-entropy snapshot an in-flight descent reads
    is left untouched, so auditing never changes what is exchanged.
    Empty when consistent. *)

val replica_divergence : t -> string list
(** Replica agreement audit: for every replicated partition, each live
    replica's span digest must match. Empty iff anti-entropy has
    converged (given quiesced traffic). *)

type ae_stats = Store.ae_stats = {
  ae_digests : int;  (** legacy flat digests pushed (spans at or under the threshold) *)
  ae_roots : int;  (** Merkle root frames pushed *)
  ae_requests : int;  (** descent rounds: [Mt_request] messages sent *)
  ae_frames : int;  (** child frames served by owners *)
  ae_leaves : int;  (** divergent buckets resolved by key exchange *)
  ae_keys_sent : int;  (** cells shipped by all anti-entropy sync paths *)
}

val ae_stats : t -> ae_stats
(** Anti-entropy protocol counters, both the legacy flat-digest and the
    Merkle-descent paths. *)

(** {2 Heat and health exports} *)

type heat_row = {
  hr_span : Dht_hashspace.Span.t;
  hr_owner : int;  (** snode owning the partition now; [-1] if unowned *)
  hr_reads : float;  (** EWMA read heat (decayed to the current clock) *)
  hr_writes : float;
  hr_repl : float;  (** replica traffic: sync, hints, repair *)
  hr_bytes : float;  (** EWMA byte heat across all classes *)
  hr_read_count : int;  (** undecayed lifetime access counts *)
  hr_write_count : int;
  hr_repl_count : int;
}

val heat_total : heat_row -> float
(** [hr_reads + hr_writes + hr_repl]. *)

val heat_rows : t -> heat_row list
(** The heat table, one row per partition ever accessed, sorted by span
    ({!Dht_hashspace.Span.compare}) — deterministic. Empty unless [create]
    was passed [~heat:true]. EWMA values are decayed to the engine's
    current virtual time. *)

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
(** Every live snode's per-peer reliable-layer telemetry, sorted by
    (observer, peer) — the raw material for the gray-failure health scorer
    ({!Dht_obsv.Health.scores}). Empty without a fault plan (the reliable
    layer is off). Soft state: crashes reset an observer's estimators, so
    sample mid-run to catch a gray failure in the act. *)

(** {2 Active load balancing} *)

val arm_balancer : t -> until:float -> unit
(** Pre-schedule gossip, report and balance rounds at their policy
    cadences up to virtual time [until]. A gossip round has every live
    snode push its view to [fanout] random peers, which reply with theirs;
    a report round sends each live snode's fresh summary to its directory
    snode; a balance round has every directory propose rate-limited
    hot-partition swaps from its heaviest reporters toward its lightest.
    The rounds are explicit and bounded, like
    {!anti_entropy}, so {!run} without a horizon still drains the queue.
    Requires [create ~balance].
    @raise Invalid_argument when the balancer is not armed. *)

type lb_stats = {
  lbs_transfers : int;  (** completed hot-partition swap events *)
  lbs_proposals : int;  (** directory proposals issued *)
  lbs_emergencies : int;  (** proposals via the emergency path *)
  lbs_skipped : int;  (** proposals dropped by validation or rate limits *)
  lbs_reports : int;  (** gossip and directory report messages sent *)
}

val lb_stats : t -> lb_stats
(** Balancer counters (all zero without [balance] or before any round). *)

val lb_views : t -> (int * int * Dht_balance.Summary.t list) list
(** [(sid, version, view)] for every snode, in snode order: its durable
    summary version counter — gossip ground truth for
    {!Dht_balance.Gossip.staleness} — and its gossip view (sorted by
    origin), the convergence property's input. A crashed snode reports its
    reset view and its kept counter.
    Needed by test_balance (gossip convergence and staleness oracles). *)

(** {2 Scalable routing} *)

val route_level : t -> int
(** The finger level the runtime routes at ({!Route.level}): ceil(log2
    snodes), clamped to the space. Fixed at creation. *)

val route_cap : t -> int
(** The per-snode routing-cache entry bound; [0] = unbounded (legacy). *)

val max_hops : t -> int
(** The forwarding limit a routed operation backs off at. *)

val arm_route_refresh : t -> interval:float -> until:float -> unit
(** Pre-schedule routing-maintenance rounds every [interval] up to virtual
    time [until]. In a round every live snode reports its exact owned
    placements to the stewards of the regions they intersect, riding the
    balancer's {!Wire.Lb_report} message class ([entries = \[\]]) so
    maintenance adds no new wire tag; a round is a no-op when
    [route_cap = 0]. The rounds are explicit and bounded, like
    {!arm_balancer}, so {!run} without a horizon still drains the queue.
    @raise Invalid_argument if [interval] is not positive and finite. *)

type route_cache_stats = Route.stats = {
  rcs_hits : int;  (** cache probes answered by a region-fine entry *)
  rcs_misses : int;  (** probes that fell back to steward or chain *)
  rcs_evictions : int;  (** LRU pair-folds forced by the cap *)
  rcs_refreshes : int;  (** steward refresh reports sent *)
  rcs_entries : int;  (** current total entries across all caches *)
  rcs_peak : int;  (** highest post-learn occupancy of any one cache *)
}

val route_cache_stats : t -> route_cache_stats
(** Bounded-cache counters (all zero when [route_cap = 0] — the legacy
    path does not count probes). *)

val route_cache_entries : t -> int -> int
(** Current routing-cache entry count of one snode. *)

val route_hops : t -> int array
(** Per-hop-count totals of executed routed operations: index [h] is the
    number of ops that reached their owner in exactly [h] forwarding
    hops (length [max_hops + 1]). A fresh copy; diff two snapshots to
    window a measurement. Counts the routed (single-copy) path only —
    quorum rounds do not forward. *)

val record_metrics : t -> Dht_telemetry.Registry.t -> unit
(** Dump the scalar counters and gauges — engine ([engine.dispatched],
    [engine.max_pending], [engine.virtual_time]), network totals and
    per-tag traffic ([net.messages]/[net.bytes], label [tag=<wire tag>]),
    fault/recovery counters, replication repair counters
    ([runtime.repl.hint.stored/flushed], [runtime.repl.repair.read],
    [runtime.repl.sync.cells/orphans]) and completed-operation counts
    ([runtime.ops], label [op]) — into [reg]. With [~heat:true] also dumps
    the per-partition heat table as [heat.reads/writes/repl/bytes] gauges
    and [heat.accesses] counters labeled [(partition, owner)]. Call once,
    after the run; the histograms registered by [create ~metrics]
    accumulate live and need no dump. *)

val sigma_qv : t -> float
(** σ̄(Qv) (%) computed from the distributed state (all snodes' local
    partitions). *)

(** {2 Verification hooks}

    Passive exports for the {!Dht_check} subsystem: a canonical snapshot of
    the distributed state, a per-commit notification, an operation-history
    recorder, and a deterministic flush of the transmission-batching
    buffers. None of them changes the runtime's behaviour unless used. *)

val space : t -> Dht_hashspace.Space.t
(** The hash space the cluster was built over. *)

val pmin : t -> int
(** The configured [Pmin] ([Pmax = 2·Pmin]). *)

val vmax : t -> int
(** The group capacity [Vmax = 2·Vmin]; [max_int] under {!Global}. *)

(** Operation-history events, as fed to the recorder installed with
    {!set_recorder}: each data operation's invocation and its outcome,
    stamped with the virtual clock. A put whose [Ack] never arrives and
    that is not settled by [Fail] is {e pending}: it may or may not have
    taken effect. *)
module Oplog : sig
  type op = Op_put of { key : string; value : string } | Op_get of { key : string }

  type event =
    | Invoke of { token : int; via : int; op : op; at : float }
    | Ack of { token : int; at : float }
        (** the put is acknowledged durable (owner ack or W replica acks) *)
    | Reply of { token : int; value : string option; at : float }
        (** the get resolved to [value] *)
    | Fail of { token : int; at : float }
        (** the put settled as unacknowledged (quorum never assembled) *)
    | Busy of { token : int; at : float }
        (** shed by admission control before touching any replica: like
            [Fail], but additionally guaranteed effect-free — the value
            must never be observed by any read nor found durable *)
end

val set_recorder : t -> (Oplog.event -> unit) option -> unit
(** Install (or remove) the operation-history recorder. Purely passive. *)

val set_on_commit : t -> (event:int -> snode:int -> unit) option -> unit
(** Install (or remove) a hook invoked each time snode [snode] finishes
    applying the Commit of balancing event [event] — the moment per-snode
    audits are meaningful. Cluster-wide invariants may legitimately be in
    flux here (other participants apply the same commit at their own
    delivery times); check those at quiescence instead. *)

val flush_lingering : t -> unit
(** Force every live snode's staged coalescing buffers onto the wire now,
    in (snode, destination) order. A no-op when [linger = 0] or nothing is
    staged. Deterministic, so schedule explorers can inject flush points
    reproducibly. *)

(** The cluster's logical state as pure, canonically-ordered data. Two
    runs whose views have structurally equal [snodes] hold the same
    partitions, group structure, LPDR copies, routing caches, replica maps
    and key/value contents — version stamps and the clock are excluded, so
    logically identical states compare equal even when virtual timings
    differ (e.g. under transmission batching). *)
module View : sig
  type lpdr_copy = {
    group : Dht_core.Group_id.t;
    level : int;
    epoch : int;
    counts : Plan.lpdr;
  }

  type vnode_view = {
    vid : Dht_core.Vnode_id.t;
    group : Dht_core.Group_id.t;
    spans : Dht_hashspace.Span.t list;
    data : (string * string) list;  (** sorted [(key, value)] *)
  }

  type snode_view = {
    sid : int;
    up : bool;
    vnodes : vnode_view list;
    lpdrs : lpdr_copy list;
    cache : (Dht_hashspace.Span.t * Dht_core.Vnode_id.t) list;
    rmap : (Dht_hashspace.Span.t * int list) list;
    replicas : (string * string) list;
    hints : int;
  }

  type t = { at : float; snodes : snode_view list }
end

val view : t -> View.t
(** Snapshot the distributed state. Pure observation — no messaging, no
    mutation. *)

