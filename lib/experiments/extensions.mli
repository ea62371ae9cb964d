(** Extension experiments: claims the paper makes but does not measure.

    - {!parallel} quantifies §3's serialization-vs-parallelism argument on
      the message-level snode runtime.
    - {!hetero} exercises the heterogeneous-enrollment feature of §1/§2.1.2.
    - {!kvload} and {!churn} check on the snode runtime that quota balance
      translates into data balance and that rebalancing never loses keys
      (data plane). *)

type parallel_row = {
  label : string;
  par_created : int;  (** creations completed (must equal the arrivals) *)
  par_makespan : float;  (** virtual time of the last completion *)
  par_mean_latency : float;  (** per creation, completion − arrival *)
  par_p95_latency : float;
  par_messages : int;  (** remote messages on the fabric *)
  par_bytes : int;
  par_per_tag : (string * int * int) list;
      (** fabric traffic by wire tag: [(tag, messages, bytes)], sorted by
          tag *)
  par_audit_ok : bool;  (** {!Dht_check.Invariants.check_runtime} finds nothing *)
}

val parallel :
  ?snodes:int ->
  ?vnodes:int ->
  ?rate:float ->
  ?vmins:int list ->
  seed:int ->
  unit ->
  parallel_row list
(** Creates [vnodes] vnodes with Poisson arrivals at [rate] per second
    (default 20,000/s, 512 vnodes, 64 snodes) through the
    {!Dht_snode.Runtime} global protocol and through its local protocol
    for each [vmins] value (default [\[16; 32; 64\]]), all at Pmin = 32.
    The same arrival trace is used for every row, and each row is one
    fresh runtime.
    @raise Invalid_argument if [vnodes < 1], [rate <= 0.] or
    [snodes < 1]. *)

type hetero_report = {
  names : string array;  (** node names *)
  ideal_shares : float array;  (** capacity share each node should hold *)
  actual_quotas : float array;  (** quota each node does hold *)
  vnode_counts : int array;  (** vnodes apportioned per node *)
  max_rel_err : float;  (** worst |actual − ideal| / ideal *)
  rms_rel_err : float;
}

val hetero :
  ?total_vnodes:int ->
  ?pmin:int ->
  ?vmin:int ->
  seed:int ->
  unit ->
  hetero_report
(** Builds a mixed-generation cluster (8×1.0, 4×2.0, 2×4.0),
    apportions [total_vnodes] (default 128) vnodes by capacity score,
    grows a local-approach DHT accordingly and compares each node's DHT
    quota with its capacity share. *)

type kv_report = {
  keys : int;
  initial_vnodes : int;
  final_vnodes : int;
  load_sigma_before : float;  (** keys-per-vnode σ̄ (%) before growth *)
  load_sigma_after : float;
  quota_sigma_after : float;  (** σ̄(Qv) (%) after growth, for comparison *)
  migrations : int;  (** keys whose owning vnode changed during growth *)
  lost : int;  (** keys not at their owner after growth (must be 0) *)
  findings : string list;
      (** {!Dht_check.Invariants.check_runtime} after growth (must be []) *)
}

val kvload :
  ?keys:int ->
  ?initial_vnodes:int ->
  ?final_vnodes:int ->
  ?zipf:bool ->
  seed:int ->
  unit ->
  kv_report
(** Loads [keys] (default 100_000, uniform; [zipf] draws keys from a Zipf
    popularity law instead) into a {!Dht_snode.Runtime} of 16 snodes
    holding [initial_vnodes] (default 64) local-approach vnodes (Pmin = 32,
    Vmin = 16), grows it
    to [final_vnodes] (default 128) one creation at a time — donors
    stream partitions and their keys to each newcomer — and audits data
    balance, key reachability ({!Dht_snode.Runtime.peek}) and the
    invariant battery. Vnode [i] lives on snode [i mod 16].
    @raise Invalid_argument unless [1 <= initial_vnodes <= final_vnodes]
    and [keys >= 1]. *)

type churn_report = {
  operations : int;  (** join/leave operations attempted *)
  joins : int;
  leaves : int;
  blocked_leaves : int;  (** leaves refused (L2 floor or capacity) *)
  final_vnodes : int;  (** vnodes hosted at the end *)
  sigma_qv_curve : float array;  (** σ̄(Qv) after each operation *)
  churn_keys_moved : int;
      (** keys whose owning vnode changed between loading and the end *)
  churn_keys_lost : int;  (** keys not at their owner at the end (must be 0) *)
  audit_failures : int;
      (** invariant findings over every periodic audit (must be 0) *)
}

val churn :
  ?initial_vnodes:int ->
  ?operations:int ->
  ?leave_fraction:float ->
  ?keys:int ->
  ?pmin:int ->
  ?vmin:int ->
  seed:int ->
  unit ->
  churn_report
(** Dynamic joins {e and leaves} ("cluster nodes may dynamically join or
    leave the DHT", §1) on a {!Dht_snode.Runtime} of 32 snodes: starting
    from [initial_vnodes] (default 128) with [keys] (default 20_000)
    stored, performs [operations] (default 400) random operations, each
    a leave ({!Dht_snode.Runtime.remove_vnode}) with probability
    [leave_fraction] (default 0.4) of a uniformly chosen vnode, otherwise
    a join; each runs to completion before the next. Leaves the runtime
    refuses (L2 floor or capacity) are counted, the balance trace recorded, the
    invariant battery run every 50 operations and at the end, and every
    key re-read at its owner.
    @raise Invalid_argument if [leave_fraction] is outside [\[0, 1\]] or
    [operations] or [initial_vnodes] is below 1. *)

type ablation_report = {
  quota_sigma_qv : float;  (** final σ̄(Qv) with the paper's §3.6 selection *)
  uniform_sigma_qv : float;  (** final σ̄(Qv) with uniform group choice *)
  quota_sigma_qg : float;
  uniform_sigma_qg : float;
}

val ablation_selection :
  ?runs:int -> ?vnodes:int -> ?pmin:int -> ?vmin:int -> seed:int -> unit ->
  ablation_report
(** Ablation of the victim-selection rule: the paper routes a uniform hash
    index so groups receive new vnodes in proportion to their quota (§3.6).
    Replacing it with a uniform choice over groups starves large-quota
    groups and roughly doubles σ̄(Qv) (σ̄(Qg) is less affected — group
    membership counts equalize either way); this experiment quantifies the
    gap (mean of final values over [runs], default 20). *)

type hetero_compare_report = {
  local_max_err : float;  (** worst |quota/share − 1| under the local model *)
  local_rms_err : float;
  ch_max_err : float;  (** same under weighted Consistent Hashing *)
  ch_rms_err : float;
}

type coexist_report = {
  dht_names : string list;
  error_before : float list;  (** per-DHT RMS tracking error at steady state *)
  error_after_load : float list;
      (** same, after external load appears but before retargeting *)
  error_after_retarget : float list;  (** after re-apportioning enrollment *)
  coexist_added : int;
  coexist_removed : int;
  coexist_blocked : int;
}

val coexist :
  ?load:float ->
  seed:int ->
  unit ->
  coexist_report
(** §6 future work: two DHTs share a mixed-generation cluster
    (8×1.0/4×2.0/2×4.0, 96 vnodes each). An external application then
    occupies [load] (default 0.6) of the first 4 nodes; re-targeting
    enrollment to the remaining free capacity restores the
    quota-vs-free-capacity tracking that the load disturbed. *)

type distributed_report = {
  dist_vnodes : int;  (** vnodes created through the message protocol *)
  dist_sigma_qv : float;  (** σ̄(Qv) (%) of the distributed state *)
  oracle_sigma_qv : float;  (** σ̄(Qv) (%) of a centralized run, same scale *)
  dist_messages : int;
  dist_bytes : int;
  dist_retries : int;  (** routed operations that hit stale caches *)
  dist_keys_wrong : int;  (** must be 0 *)
  dist_audit_ok : bool;  (** must be true *)
  makespan : float;  (** virtual seconds to absorb the burst *)
}

val distributed :
  ?snodes:int ->
  ?vnodes:int ->
  ?metrics:Dht_telemetry.Registry.t ->
  ?trace:Dht_telemetry.Trace.t ->
  seed:int ->
  unit ->
  distributed_report
(** End-to-end run of the {!Dht_snode.Runtime} message-level system:
    5000 keys are stored, then [vnodes] (default 128) creations (Pmin =
    32, Vmin = 16) fire concurrently on a [snodes]-node cluster (default
    16); all keys are re-read from random snodes and the distributed
    state is audited. The
    balance is compared against a centralized {!Dht_core.Local_dht} run of
    the same size. {!parallel} is the global-vs-local comparison.
    [metrics] and [trace] instrument the runtime (see
    {!Dht_snode.Runtime.create}); the registry additionally receives the
    post-run counter dump ({!Dht_snode.Runtime.record_metrics}). *)

type chaos_report = {
  chaos_vnodes : int;  (** vnodes created despite the faults *)
  chaos_sigma_qv : float;  (** σ̄(Qv) (%) after convergence *)
  baseline_sigma_qv : float;  (** same workload, no faults *)
  chaos_makespan : float;  (** virtual seconds to absorb the faulty burst *)
  baseline_makespan : float;
  chaos_messages : int;  (** includes retransmissions and acks *)
  baseline_messages : int;
  chaos_keys_wrong : int;  (** must be 0 *)
  chaos_pending : int;  (** operations never completed; must be 0 *)
  chaos_audit_ok : bool;  (** must be true *)
  chaos_stats : Dht_snode.Runtime.stats;
  chaos_per_tag : (string * int * int) list;
      (** faulty-run remote traffic by wire tag: [(tag, messages, bytes)],
          sorted by tag; retransmitted frames appear under their
          [req:]-prefixed tag, acks under [ack] *)
  chaos_recovery_p50 : float;
      (** median crash-to-restart latency (virtual seconds) *)
  chaos_recovery_p99 : float;  (** [nan] when no crash recovered *)
  chaos_rfactor : int;
  chaos_read_quorum : int;
  chaos_write_quorum : int;
  chaos_acked_writes : int;
      (** writes acknowledged to the client during the faulty run *)
  chaos_lost_acked : int;
      (** acknowledged writes NOT durable after repair — the headline
          durability number, must be zero *)
  chaos_repl : Dht_snode.Runtime.repl_stats;
      (** hinted-handoff / read-repair / anti-entropy activity *)
  chaos_qput_p50 : float;
      (** median quorum write latency; [nan] when [rfactor = 1] *)
  chaos_qget_p50 : float;  (** median quorum read latency *)
  chaos_linger : float;  (** coalescing window both runs used *)
  chaos_batches : int;
      (** coalesced envelopes the faulty run put on the wire *)
  chaos_batched_parts : int;  (** messages that rode inside them *)
  chaos_batch_saved_bytes : int;
      (** envelope bytes amortized away by coalescing *)
  chaos_batch_occupancy_p50 : float;
      (** median messages per envelope; [nan] when nothing coalesced *)
  chaos_route_cap : int;  (** routing-cache entry bound (0 = unbounded) *)
  chaos_route : Dht_snode.Runtime.route_cache_stats;
      (** faulty-run routing-cache traffic; all-zero when unbounded *)
}

val chaos :
  ?snodes:int ->
  ?vnodes:int ->
  ?keys:int ->
  ?pmin:int ->
  ?vmin:int ->
  ?drop:float ->
  ?dup:float ->
  ?jitter:float ->
  ?crashes:int ->
  ?downtime:float ->
  ?rfactor:int ->
  ?read_quorum:int ->
  ?write_quorum:int ->
  ?linger:float ->
  ?route_cap:int ->
  ?metrics:Dht_telemetry.Registry.t ->
  ?trace:Dht_telemetry.Trace.t ->
  ?causal:bool ->
  seed:int ->
  unit ->
  chaos_report
(** Robustness run of the {!Dht_snode.Runtime} message-level system under
    an adversarial network. [keys] (default 600) are stored, then [vnodes]
    (default 40) creations fire on [snodes] (default 12) snodes while every
    remote message risks being dropped ([drop], default 3%), duplicated
    ([dup], default 1.5%) or delayed (uniform [jitter], default 200 µs),
    and [crashes] (default 2) snodes crash-stop mid-burst for [downtime]
    (default 50 ms virtual) each. A dry faultless pass first locates the
    burst in virtual time (the crash windows are aimed at it) and provides
    the baseline columns. An extra write volley fires inside each crash
    window — live coordinators writing toward a dead replica, the hinted
    handoff scenario. Faults then cease and every key is re-read and
    the distributed state audited: with reliable delivery and crash
    recovery, all operations complete and the audit holds.

    With [rfactor > 1] (and [read_quorum]/[write_quorum], validated by
    {!Dht_core.Params.check_quorum}) the data plane runs replicated: every
    write tracks whether it was acknowledged (owner ack or W replica
    acks), two anti-entropy rounds run after the faults cease, and the
    report's [chaos_lost_acked] counts acknowledged writes missing from
    the owner's authoritative copy afterwards ({!Dht_snode.Runtime.peek}) —
    the acknowledged-write durability guarantee, expected zero.

    [linger] (default 0: off) arms transmission batching in both runs
    ({!Dht_snode.Runtime.create}); the report's batch columns surface the
    faulty run's coalescing activity. [route_cap] (default 0: unbounded
    legacy caches) arms bounded prefix routing in both runs; the report's
    [chaos_route] block surfaces the faulty run's cache traffic, so the
    routing layer can be chaos-tested under the same fault mix as the
    data plane.

    The faulty run (never the baseline) is always instrumented — the
    recovery quantiles in the report come from its downtime histogram.
    Pass [metrics] to receive those instruments plus the post-run counter
    dump in your own registry, and [trace] to stream its protocol events
    ({!Dht_snode.Runtime.create}); with a fixed [seed] the trace is
    byte-identical across runs. [causal] (with [trace]) additionally arms
    causal span-context propagation on the faulty run. *)

type overload_phase = {
  ph_name : string;  (** ["pre"], ["burst"] or ["post"] *)
  ph_offered : int;  (** puts issued inside the phase window *)
  ph_acked : int;  (** of those, eventually acknowledged *)
  ph_busy : int;  (** of those, shed with {!Dht_snode.Wire.Busy} *)
  ph_timely : int;  (** of those, acknowledged within the SLO *)
  ph_goodput : float;
      (** timely acks per virtual second — useful work, the number the
          metastability gate watches *)
  ph_throughput : float;
      (** completions (acked or shed) per virtual second — includes work
          that was late or refused, which is why it can look healthy while
          goodput collapses *)
}

type overload_report = {
  ov_phases : overload_phase list;  (** pre, burst, post — in order *)
  ov_slow_snode : int;  (** the gray-failed snode *)
  ov_slow_factor : float;  (** its service-time inflation during the burst *)
  ov_rate : float;  (** offered load, pre and post (puts/s) *)
  ov_burst_rate : float;  (** offered load during the burst *)
  ov_slo : float;  (** ack deadline for an op to count as goodput *)
  ov_acked : int;  (** distinct writes acknowledged over the whole run *)
  ov_lost_acked : int;  (** acked writes missing from the authoritative
                            copy after the drain — must be 0 *)
  ov_busy_total : int;  (** quorum ops shed by admission control *)
  ov_pending : int;  (** operations never settled — must be 0 *)
  ov_audit_ok : bool;  (** paper-invariant battery after the drain *)
  ov_queue_audit : string list;
      (** {!Dht_snode.Runtime.queue_audit} findings, sampled mid-burst and
          after the drain — must be empty *)
  ov_busy_violations : string list;
      (** {!Dht_check.Linear.busy_never_committed} findings — must be
          empty: a shed write observed as committed *)
  ov_overload : Dht_snode.Runtime.overload_stats;  (** degraded run *)
  ov_stats : Dht_snode.Runtime.stats;
  ov_retx_per_op : float;
      (** (retransmits + probes) per reliable message, degraded run *)
  ov_fixed_overload : Dht_snode.Runtime.overload_stats;
  ov_fixed_stats : Dht_snode.Runtime.stats;  (** fixed-RTO baseline run *)
  ov_fixed_retx_per_op : float;
      (** same workload with every degradation knob off — the adaptive
          path must come in strictly below this *)
  ov_recovery_ratio : float;
      (** post-burst goodput / pre-burst goodput; the metastability gate
          demands it stays near 1 *)
  ov_health : (int * float) list;
      (** gray-failure health ranking, worst first: per-snode scores from
          {!Dht_obsv.Health.scores} over the degraded run's reliable-layer
          telemetry ({!Dht_snode.Runtime.peer_samples}), sampled mid-burst
          — at quiescence the estimators re-converge and hide the failure.
          1.0 is the cluster median; the gray-failed snode must rank
          first *)
}

val overload :
  ?slow_factor:float ->
  ?retry_budget:int ->
  ?metrics:Dht_telemetry.Registry.t ->
  ?trace:Dht_telemetry.Trace.t ->
  ?causal:bool ->
  seed:int ->
  unit ->
  overload_report
(** Overload and gray-failure scenario on 8 snodes (24 vnodes, Pmin = 8,
    Vmin = 4, rfactor 3 with 2/2 quorums, 0.5% drops): three equal 0.4 s
    windows of Engine-paced quorum writes — 4000 puts/s, then 8000 puts/s
    while one snode gray-fails (alive but [slow_factor] times slower, via
    {!Dht_event_sim.Fault.set_slow}), then 4000 puts/s again. An op counts
    toward {e goodput} only when its ack lands within 50 ms of issue;
    {e throughput} also counts late acks and [Busy] rejections, so the two
    diverge exactly when the cluster is melting. The same workload runs
    twice: once with the degradation layer armed (adaptive RTO,
    [retry_budget], 8-message peer windows, 20 ms admission-deadline
    shedding) and once with every knob off (fixed-RTO baseline) on the
    same network with a 64-message ingress bound, yielding the
    retransmissions-per-op comparison. The degraded run is audited end to
    end: acked-write durability via {!Dht_snode.Runtime.peek}, queue
    discipline via {!Dht_snode.Runtime.queue_audit} (sampled mid-burst, at
    peak pressure), and {!Dht_check.Linear.busy_never_committed} over the
    recorded history. [causal] (with [trace]) arms causal tracing on the
    degraded run, for critical-path analysis of the burst. *)

type skew_run = {
  sk_gini : float;
      (** Gini of per-snode heat totals at quiescence — 0 is perfectly
          even, toward 1 as load concentrates on one snode *)
  sk_sigma : float;  (** σ/mean of the same totals, percent *)
  sk_p50 : float;  (** data-op latency percentiles, virtual seconds *)
  sk_p99 : float;
  sk_completed : int;  (** data ops whose callback fired *)
  sk_acked : int;  (** acknowledged writes *)
  sk_lost : int;
      (** acked writes the durability oracle cannot see — must be 0 *)
  sk_lb : Dht_snode.Runtime.lb_stats;  (** balancer counters (zero off) *)
  sk_findings : string list;
      (** {!Dht_check.Invariants.check_balance}: the paper battery plus
          acked-write placement — must be empty *)
  sk_linear : string list;
      (** durability + busy-never-committed findings — must be empty *)
}

type skew_report = {
  sk_snodes : int;
  sk_zipf : float;  (** Zipf exponent of the workload *)
  sk_keys : int;  (** key population ("item1" is the hottest) *)
  sk_rate : float;  (** offered data ops per virtual second *)
  sk_duration : float;  (** measured window, virtual seconds *)
  sk_crash : bool;  (** one snode crash-stopped mid-run *)
  sk_off : skew_run;  (** balancer off *)
  sk_on : skew_run;  (** balancer on — same seed, same op stream *)
}

val skew :
  ?snodes:int ->
  ?vnodes:int ->
  ?keys:int ->
  ?zipf:float ->
  ?rate:float ->
  ?duration:float ->
  ?max_inflight:int ->
  ?heat_tau:float ->
  ?crash:bool ->
  ?metrics:Dht_telemetry.Registry.t ->
  seed:int ->
  unit ->
  skew_report
(** The active balancer's acceptance experiment: one pre-generated
    [zipf]-skewed op stream (default 0.99 over [keys] = 1000 keys, 80%
    reads, Engine-paced at [rate]/s for [duration] virtual seconds) runs
    twice over the same replicated cluster shape (Pmin = 8, Vmin = 4,
    rfactor 3 with 2/2 quorums) — balancer off, then on
    ({!Dht_snode.Runtime.arm_balancer} at the
    {!Dht_balance.Policy.default} cadences). Acceptance: balancer-on must
    reduce both the per-snode heat Gini and the p99 op latency, with
    empty [sk_findings]/[sk_linear] and [sk_lost = 0] on both runs. [crash]
    adds a mid-run crash/restart of one snode, exercising transfer
    fencing under churn. [metrics] records the balancer-on run.

    For latency to respond to placement at all, the run must create
    load-dependent queueing: [max_inflight > 0] arms the reliable
    layer's bounded per-peer windows, and the link must be slow
    enough that a hot route's message rate exceeds the window's service
    rate [max_inflight / RTT] — on a gigabit fabric the cap is ~40k
    msgs/s per route and never binds. The defaults
    ([max_inflight = 4], a 0.8 ms base latency, [rate] = 20k/s over 8
    snodes) put the cap near 2.5k msgs/s per route: comfortably above
    an average route, below the routes into the Zipf-hot snode — so
    balancer-off queues on hot routes while balancer-on stays flat. *)

type routing_run = {
  rs_snodes : int;
  rs_vnodes : int;  (** vnodes alive at the end (including the join) *)
  rs_level : int;  (** finger level routed at: [ceil(log2 snodes)] *)
  rs_cap : int;  (** per-snode routing-cache entry bound *)
  rs_ops : int;  (** routed ops executed inside the measurement window *)
  rs_hops_p50 : float;  (** windowed per-op forwarding-hop percentiles *)
  rs_hops_p99 : float;
  rs_hops_max : int;
  rs_msgs_per_op : float;  (** window network messages / windowed ops *)
  rs_cache_entries_max : int;  (** fullest cache at quiescence (<= cap) *)
  rs_cache_entries_total : int;
  rs_cache_bytes_max : int;  (** wire-model bytes of the fullest cache *)
  rs_cache : Dht_snode.Runtime.route_cache_stats;
  rs_retries : int;  (** hop-limit backoffs over the whole run *)
  rs_sigma : float;  (** sigma-bar(Qv) (%) at quiescence *)
  rs_findings : string list;
      (** invariant battery + durability oracle; must be [] *)
  rs_linear : string list;  (** durability findings; must be [] *)
}

val routing_scaling :
  ?vnodes:int ->
  ?route_cap:int ->
  ?max_hops:int ->
  ?keys:int ->
  ?ops:int ->
  ?rate:float ->
  ?read_fraction:float ->
  ?churn:bool ->
  ?metrics:Dht_telemetry.Registry.t ->
  snodes:int ->
  seed:int ->
  unit ->
  routing_run
(** One cluster size of the O(log N) prefix-routing scaling sweep: a
    [snodes]-snode cluster (default [vnodes = snodes] vnodes, Pmin = 8,
    Vmin = 4, 0.8 ms links) routes [ops] (default 4000) single-copy data
    operations drawn from a derived key population of [keys] (default
    one million — derived, so never materialized) with bounded routing
    armed ([route_cap] = 128 entries per snode, [max_hops] = 32). The
    cluster is grown as one paced phase (creation rate scaled with [snodes])
    under a periodic steward-refresh cadence armed across the growth
    window: flooding every creation at once against cold stewards
    routes quadratically and melts the reliable layer's RTO, while
    paced, refresh-as-you-grow construction stays near-linear. With [churn] (default true) one snode crash-stops and
    restarts mid-window and one vnode joins, so lookups cross stale
    caches repaired only by reply hints and the advice chain. Hop and
    message counters are snapshotted around the measurement window, so
    construction traffic does not contaminate the percentiles. Acceptance per size: [rs_hops_p99 <=
    2 * log2 snodes], [rs_cache_entries_max <= route_cap], empty
    [rs_findings] and [rs_linear]. *)

val routing_hit_pct : routing_run -> float
(** Cache probes answered by a fine entry, in percent of all probes
    ([rs_cache] hits over hits + misses); 0 when nothing was probed. *)

val hetero_compare :
  ?runs:int ->
  seed:int ->
  unit ->
  hetero_compare_report
(** Heterogeneous clusters under both models, on {!hetero}'s cluster
    with 128 vnodes: the local approach (Pmin = 32, Vmin = 16) enrolls
    vnodes in proportion to capacity; Consistent Hashing weights nodes with
    ring points in proportion to capacity (32 per unit of score, as in
    CFS). Reports how far each node's quota lands from
    its capacity share (averaged over [runs], default 20). *)
