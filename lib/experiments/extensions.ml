open Dht_core
module Rng = Dht_prng.Rng
module Cluster = Dht_cluster
module Space = Dht_hashspace.Space
module Invariants = Dht_check.Invariants
module Runtime = Dht_snode.Runtime
module Engine = Dht_event_sim.Engine
module Network = Dht_event_sim.Network

(* The runtime's one invariant battery holds. *)
let battery_ok rt = Invariants.check_runtime rt = []

type parallel_row = {
  label : string;
  par_created : int;
  par_makespan : float;
  par_mean_latency : float;
  par_p95_latency : float;
  par_messages : int;
  par_bytes : int;
  par_per_tag : (string * int * int) list;
  par_audit_ok : bool;
}

let parallel ?(snodes = 64) ?(vnodes = 512) ?(rate = 20_000.)
    ?(vmins = [ 16; 32; 64 ]) ~seed () =
  if vnodes < 1 then invalid_arg "Extensions.parallel: vnodes < 1";
  let arrivals =
    Dht_workload.Trace.poisson ~rng:(Rng.of_int seed) ~n:vnodes ~rate
  in
  let run approach label =
    let rt = Runtime.create ~pmin:32 ~approach ~snodes ~seed () in
    let engine = Runtime.engine rt in
    let latencies = ref [] and makespan = ref 0. in
    (* Vnode 0.0 bootstraps the DHT; arrival [i] creates vnode [i + 1]. *)
    Array.iteri
      (fun i time ->
        let id =
          Vnode_id.make ~snode:((i + 1) mod snodes) ~vnode:((i + 1) / snodes)
        in
        Engine.at engine ~time (fun () ->
            Runtime.create_vnode rt ~id
              ~on_done:(fun () ->
                makespan := Engine.now engine;
                latencies := (!makespan -. time) :: !latencies)
              ()))
      arrivals;
    Runtime.run rt;
    let latencies = Array.of_list !latencies in
    let net = Runtime.network rt in
    {
      label;
      par_created = Runtime.completed_creations rt;
      par_makespan = !makespan;
      par_mean_latency = Dht_stats.Descriptive.mean latencies;
      par_p95_latency = Dht_stats.Descriptive.percentile latencies ~p:0.95;
      par_messages = Network.messages net;
      par_bytes = Network.bytes_sent net;
      par_per_tag = Network.per_tag net;
      par_audit_ok = battery_ok rt;
    }
  in
  run Runtime.Global "global"
  :: List.map
       (fun vmin ->
         run (Runtime.Local { vmin }) (Printf.sprintf "local Vmin=%d" vmin))
       vmins

(* The mixed-generation cluster of the heterogeneity experiments:
   (count, capacity score) per hardware generation. *)
let generations = [ (8, 1.0); (4, 2.0); (2, 4.0) ]

type hetero_report = {
  names : string array;
  ideal_shares : float array;
  actual_quotas : float array;
  vnode_counts : int array;
  max_rel_err : float;
  rms_rel_err : float;
}

let hetero ?(total_vnodes = 128) ?(pmin = 32) ?(vmin = 16) ~seed () =
  let cluster = Cluster.Topology.generations ~counts:generations in
  let n = Cluster.Topology.size cluster in
  let shares = Cluster.Enrollment.ideal_shares (Cluster.Topology.scores cluster) in
  let counts =
    Cluster.Enrollment.vnodes_of_profiles ~total:total_vnodes cluster.Cluster.Topology.nodes
  in
  let rng = Rng.of_int seed in
  (* Interleave creations across nodes so no node's vnodes cluster in time. *)
  let remaining = Array.copy counts in
  let dht = ref None in
  let next_vnode = Array.make n 0 in
  let create node =
    let id = Vnode_id.make ~snode:node ~vnode:next_vnode.(node) in
    next_vnode.(node) <- next_vnode.(node) + 1;
    (match !dht with
    | None -> dht := Some (Local_dht.create ~pmin ~vmin ~rng ~first:id ())
    | Some d -> ignore (Local_dht.add_vnode d ~id));
    remaining.(node) <- remaining.(node) - 1
  in
  let total = Array.fold_left ( + ) 0 counts in
  let cursor = ref 0 in
  for _ = 1 to total do
    (* Round-robin over nodes that still owe vnodes. *)
    while remaining.(!cursor mod n) = 0 do
      incr cursor
    done;
    create (!cursor mod n);
    incr cursor
  done;
  let dht = Option.get !dht in
  let space = (Local_dht.params dht).Params.space in
  let quotas = Array.make n 0. in
  Array.iter
    (fun v ->
      let s = v.Vnode.id.Vnode_id.snode in
      quotas.(s) <- quotas.(s) +. Vnode.quota space v)
    (Local_dht.vnodes dht);
  let rel_errs =
    Array.init n (fun i -> abs_float (quotas.(i) -. shares.(i)) /. shares.(i))
  in
  let max_rel_err = Array.fold_left Float.max 0. rel_errs in
  let rms_rel_err =
    sqrt
      (Array.fold_left (fun acc e -> acc +. (e *. e)) 0. rel_errs
      /. float_of_int n)
  in
  {
    names = Array.map (fun p -> p.Cluster.Profile.name) cluster.Cluster.Topology.nodes;
    ideal_shares = shares;
    actual_quotas = quotas;
    vnode_counts = counts;
    max_rel_err;
    rms_rel_err;
  }

type kv_report = {
  keys : int;
  initial_vnodes : int;
  final_vnodes : int;
  load_sigma_before : float;
  load_sigma_after : float;
  quota_sigma_after : float;
  migrations : int;
  lost : int;
  findings : string list;
}

(* Every stored key's owning vnode, and the key count of every vnode, as
   the runtime's snapshot shows them. *)
let key_owners rt =
  let owners = Hashtbl.create 4096 and counts = ref [] in
  List.iter
    (fun (sn : Runtime.View.snode_view) ->
      List.iter
        (fun (vn : Runtime.View.vnode_view) ->
          counts := float_of_int (List.length vn.data) :: !counts;
          List.iter (fun (key, _) -> Hashtbl.replace owners key vn.vid) vn.data)
        sn.vnodes)
    (Runtime.view rt).snodes;
  (owners, Array.of_list !counts)

(* Keys whose owning vnode changed between two {!key_owners} snapshots. *)
let moved ~owners_before owners_after =
  Hashtbl.fold
    (fun key vid n ->
      match Hashtbl.find_opt owners_before key with
      | Some before when not (Vnode_id.equal before vid) -> n + 1
      | Some _ | None -> n)
    owners_after 0

(* Relative standard deviation (%) of the per-vnode key counts about the
   ideal [keys / vnodes]; needs at least one key. *)
let load_sigma counts =
  let total = Array.fold_left ( +. ) 0. counts in
  100.
  *. Dht_stats.Descriptive.rel_stddev_about counts
       ~about:(total /. float_of_int (Array.length counts))

(* Vnode [i] lives on snode [i mod snodes]; vnode 0.0 is the runtime's
   bootstrap vnode. *)
let vid ~snodes i = Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes)

(* Creates vnodes [from .. upto - 1], each run to completion before the
   next. *)
let grow rt ~snodes ~from ~upto =
  for i = from to upto - 1 do
    Runtime.create_vnode rt ~id:(vid ~snodes i) ();
    Runtime.run rt
  done

(* Stores [keys] through the runtime and drains the writes. *)
let load rt ~snodes keys =
  Array.iteri
    (fun i key ->
      Runtime.put rt ~via:(i mod snodes) ~key ~value:(string_of_int i) ())
    keys;
  Runtime.run rt

(* Keys whose authoritative copy no longer holds the value loaded. *)
let lost_keys rt keys =
  let lost = ref 0 in
  Array.iteri
    (fun i key ->
      if Runtime.peek rt ~key <> Some (string_of_int i) then incr lost)
    keys;
  !lost

let kvload ?(keys = 100_000) ?(initial_vnodes = 64) ?(final_vnodes = 128)
    ?(zipf = false) ~seed () =
  if final_vnodes < initial_vnodes || initial_vnodes < 1 then
    invalid_arg "Extensions.kvload: need 1 <= initial <= final";
  if keys < 1 then invalid_arg "Extensions.kvload: keys < 1";
  let snodes = 16 in
  let key_rng = Rng.split (Rng.of_int seed) in
  let zipf_gen = Dht_workload.Keygen.Zipf.create ~n:(10 * keys) ~s:0.99 in
  let all_keys =
    Array.init keys (fun i ->
        if zipf then
          (* Popularity-skewed identifiers; duplicates collapse, so suffix
             the index to keep [keys] distinct bindings. *)
          Printf.sprintf "%s/%d"
            (Dht_workload.Keygen.Zipf.key zipf_gen key_rng)
            i
        else Dht_workload.Keygen.uniform key_rng)
  in
  let rt =
    Runtime.create ~pmin:32 ~approach:(Runtime.Local { vmin = 16 }) ~snodes
      ~seed ()
  in
  grow rt ~snodes ~from:1 ~upto:initial_vnodes;
  load rt ~snodes all_keys;
  let owners_before, counts_before = key_owners rt in
  grow rt ~snodes ~from:initial_vnodes ~upto:final_vnodes;
  let owners_after, counts_after = key_owners rt in
  {
    keys;
    initial_vnodes;
    final_vnodes;
    load_sigma_before = load_sigma counts_before;
    load_sigma_after = load_sigma counts_after;
    quota_sigma_after = Runtime.sigma_qv rt;
    migrations = moved ~owners_before owners_after;
    lost = lost_keys rt all_keys;
    findings = Invariants.to_strings (Invariants.check_runtime rt);
  }

type churn_report = {
  operations : int;
  joins : int;
  leaves : int;
  blocked_leaves : int;
  final_vnodes : int;
  sigma_qv_curve : float array;
  churn_keys_moved : int;
  churn_keys_lost : int;
  audit_failures : int;
}

let churn ?(initial_vnodes = 128) ?(operations = 400) ?(leave_fraction = 0.4)
    ?(keys = 20_000) ?(pmin = 32) ?(vmin = 16) ~seed () =
  if leave_fraction < 0. || leave_fraction > 1. then
    invalid_arg "Extensions.churn: leave_fraction outside [0, 1]";
  if operations < 1 || initial_vnodes < 1 then
    invalid_arg "Extensions.churn: operations and initial_vnodes must be >= 1";
  let snodes = 32 in
  let rng = Rng.of_int seed in
  let key_rng = Rng.split rng in
  let rt =
    Runtime.create ~pmin ~approach:(Runtime.Local { vmin }) ~snodes ~seed ()
  in
  grow rt ~snodes ~from:1 ~upto:initial_vnodes;
  let all_keys = Array.init keys (fun _ -> Dht_workload.Keygen.uniform key_rng) in
  load rt ~snodes all_keys;
  let owners_before, _ = key_owners rt in
  (* Track the live vnode ids so leaves target existing vnodes uniformly. *)
  let live = ref (List.init initial_vnodes (vid ~snodes)) in
  let live_count = ref initial_vnodes in
  let next = ref initial_vnodes in
  let joins = ref 0 and leaves = ref 0 and blocked = ref 0 in
  let audit_failures = ref 0 in
  let audit () =
    audit_failures :=
      !audit_failures + List.length (Invariants.check_runtime rt)
  in
  let curve = Array.make operations 0. in
  for op = 0 to operations - 1 do
    if Rng.float rng < leave_fraction && !live_count > 2 then begin
      let arr = Array.of_list !live in
      let target = arr.(Rng.int rng (Array.length arr)) in
      let departed = ref false in
      Runtime.remove_vnode rt ~id:target (fun ok -> departed := ok);
      Runtime.run rt;
      if !departed then begin
        incr leaves;
        live := List.filter (fun i -> not (Vnode_id.equal i target)) !live;
        decr live_count
      end
      else incr blocked
    end
    else begin
      grow rt ~snodes ~from:!next ~upto:(!next + 1);
      live := vid ~snodes !next :: !live;
      incr next;
      incr joins;
      incr live_count
    end;
    curve.(op) <- Runtime.sigma_qv rt;
    if op mod 50 = 0 then audit ()
  done;
  audit ();
  let owners_after, counts_after = key_owners rt in
  {
    operations;
    joins = !joins;
    leaves = !leaves;
    blocked_leaves = !blocked;
    final_vnodes = Array.length counts_after;
    sigma_qv_curve = curve;
    churn_keys_moved = moved ~owners_before owners_after;
    churn_keys_lost = lost_keys rt all_keys;
    audit_failures = !audit_failures;
  }

type ablation_report = {
  quota_sigma_qv : float;
  uniform_sigma_qv : float;
  quota_sigma_qg : float;
  uniform_sigma_qg : float;
}

let ablation_selection ?(runs = 20) ?(vnodes = 512) ?(pmin = 16) ?(vmin = 16)
    ~seed () =
  let final selection =
    let master = Rng.of_int seed in
    let qv = Dht_stats.Welford.create () and qg = Dht_stats.Welford.create () in
    for _ = 1 to runs do
      let rng = Rng.split master in
      let vid i = Vnode_id.make ~snode:i ~vnode:0 in
      let dht = Local_dht.create ~selection ~pmin ~vmin ~rng ~first:(vid 0) () in
      for i = 1 to vnodes - 1 do
        ignore (Local_dht.add_vnode dht ~id:(vid i))
      done;
      Dht_stats.Welford.add qv (Local_dht.sigma_qv dht);
      Dht_stats.Welford.add qg (Local_dht.sigma_qg dht)
    done;
    (Dht_stats.Welford.mean qv, Dht_stats.Welford.mean qg)
  in
  let quota_sigma_qv, quota_sigma_qg = final Local_dht.Quota_lookup in
  let uniform_sigma_qv, uniform_sigma_qg = final Local_dht.Uniform_group in
  { quota_sigma_qv; uniform_sigma_qv; quota_sigma_qg; uniform_sigma_qg }

type hetero_compare_report = {
  local_max_err : float;
  local_rms_err : float;
  ch_max_err : float;
  ch_rms_err : float;
}

let hetero_compare ?(runs = 20) ~seed () =
  let total_vnodes = 128 and base_points = 32 in
  let cluster = Cluster.Topology.generations ~counts:generations in
  let n = Cluster.Topology.size cluster in
  let shares =
    Cluster.Enrollment.ideal_shares (Cluster.Topology.scores cluster)
  in
  let errs quotas =
    Array.init n (fun i -> abs_float (quotas.(i) -. shares.(i)) /. shares.(i))
  in
  let summarize per_run =
    (* per_run: list of error arrays; mean max and mean rms across runs. *)
    let maxes = List.map (fun e -> Array.fold_left Float.max 0. e) per_run in
    let rmses =
      List.map
        (fun e ->
          sqrt
            (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. e
            /. float_of_int n))
        per_run
    in
    let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
    (mean maxes, mean rmses)
  in
  let master = Rng.of_int seed in
  let local_errs = ref [] and ch_errs = ref [] in
  for run = 0 to runs - 1 do
    let rng = Rng.split master in
    (* Local approach: enrollment proportional to capacity. *)
    let counts =
      Cluster.Enrollment.vnodes_of_profiles ~total:total_vnodes
        cluster.Cluster.Topology.nodes
    in
    let dht = ref None in
    let next = Array.make n 0 in
    let remaining = Array.copy counts in
    let left = ref total_vnodes in
    let cursor = ref 0 in
    while !left > 0 do
      let node = !cursor mod n in
      if remaining.(node) > 0 then begin
        let id = Vnode_id.make ~snode:node ~vnode:next.(node) in
        next.(node) <- next.(node) + 1;
        (match !dht with
        | None ->
            dht := Some (Local_dht.create ~pmin:32 ~vmin:16 ~rng ~first:id ())
        | Some d -> ignore (Local_dht.add_vnode d ~id));
        remaining.(node) <- remaining.(node) - 1;
        decr left
      end;
      incr cursor
    done;
    let dht = Option.get !dht in
    let space = (Local_dht.params dht).Params.space in
    let quotas = Array.make n 0. in
    Array.iter
      (fun v ->
        quotas.(v.Vnode.id.Vnode_id.snode) <-
          quotas.(v.Vnode.id.Vnode_id.snode) +. Vnode.quota space v)
      (Local_dht.vnodes dht);
    local_errs := errs quotas :: !local_errs;
    (* Weighted CH: ring points proportional to capacity. *)
    let ring = Dht_ch.Ring.create ~rng:(Rng.of_int (seed + run)) () in
    Array.iteri
      (fun i p ->
        let points =
          max 1
            (int_of_float
               (Float.round (float_of_int base_points *. Cluster.Profile.score p)))
        in
        Dht_ch.Ring.add_node ring ~id:i ~k:base_points ~points ())
      cluster.Cluster.Topology.nodes;
    let ch_quotas = Array.init n (fun i -> Dht_ch.Ring.quota ring ~id:i) in
    ch_errs := errs ch_quotas :: !ch_errs
  done;
  let local_max_err, local_rms_err = summarize !local_errs in
  let ch_max_err, ch_rms_err = summarize !ch_errs in
  { local_max_err; local_rms_err; ch_max_err; ch_rms_err }

type distributed_report = {
  dist_vnodes : int;
  dist_sigma_qv : float;
  oracle_sigma_qv : float;
  dist_messages : int;
  dist_bytes : int;
  dist_retries : int;
  dist_keys_wrong : int;
  dist_audit_ok : bool;
  makespan : float;
}

let distributed ?(snodes = 16) ?(vnodes = 128) ?metrics ?trace ~seed () =
  let keys = 5000 and pmin = 32 and vmin = 16 in
  let rt =
    Runtime.create ~pmin ~approach:(Runtime.Local { vmin }) ?metrics ?trace
      ~snodes ~seed ()
  in
  for i = 0 to keys - 1 do
    Runtime.put rt ~via:(i mod snodes)
      ~key:(Printf.sprintf "user:%d" i)
      ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  (* Scope traffic and makespan to the creation burst alone. *)
  Dht_event_sim.Network.reset_counters (Runtime.network rt);
  let burst_start = Dht_event_sim.Engine.now (Runtime.engine rt) in
  for i = 1 to vnodes - 1 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
      ()
  done;
  Runtime.run rt;
  let makespan = Dht_event_sim.Engine.now (Runtime.engine rt) -. burst_start in
  let burst_messages = Dht_event_sim.Network.messages (Runtime.network rt) in
  let burst_bytes = Dht_event_sim.Network.bytes_sent (Runtime.network rt) in
  let wrong = ref 0 in
  for i = 0 to keys - 1 do
    Runtime.get rt
      ~via:(i * 7 mod snodes)
      ~key:(Printf.sprintf "user:%d" i)
      (fun v -> if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  (* Centralized oracle at the same scale for the balance comparison. *)
  let oracle =
    Local_dht.create ~pmin ~vmin ~rng:(Rng.of_int seed)
      ~first:(Vnode_id.make ~snode:0 ~vnode:0)
      ()
  in
  for i = 1 to vnodes - 1 do
    ignore
      (Local_dht.add_vnode oracle
         ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes)))
  done;
  (match metrics with
  | Some reg -> Runtime.record_metrics rt reg
  | None -> ());
  {
    dist_vnodes = Runtime.vnode_count rt;
    dist_sigma_qv = Runtime.sigma_qv rt;
    oracle_sigma_qv = Local_dht.sigma_qv oracle;
    dist_messages = burst_messages;
    dist_bytes = burst_bytes;
    dist_retries = Runtime.retries rt;
    dist_keys_wrong = !wrong;
    dist_audit_ok = battery_ok rt;
    makespan;
  }

type chaos_report = {
  chaos_vnodes : int;
  chaos_sigma_qv : float;
  baseline_sigma_qv : float;
  chaos_makespan : float;
  baseline_makespan : float;
  chaos_messages : int;
  baseline_messages : int;
  chaos_keys_wrong : int;
  chaos_pending : int;
  chaos_audit_ok : bool;
  chaos_stats : Dht_snode.Runtime.stats;
  chaos_per_tag : (string * int * int) list;
      (** faulty-run remote traffic per wire tag: [(tag, messages, bytes)] *)
  chaos_recovery_p50 : float;  (** crash-to-restart latency quantiles; *)
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
  chaos_qput_p50 : float;  (** quorum op latency quantiles; [nan] when *)
  chaos_qget_p50 : float;  (** [rfactor = 1] (no quorum rounds ran) *)
  chaos_linger : float;  (** coalescing window the runs used *)
  chaos_batches : int;  (** coalesced envelopes in the faulty run *)
  chaos_batched_parts : int;  (** messages that rode inside them *)
  chaos_batch_saved_bytes : int;  (** envelope bytes amortized away *)
  chaos_batch_occupancy_p50 : float;
      (** median messages per envelope; [nan] when nothing coalesced *)
  chaos_route_cap : int;  (** routing-cache entry bound (0 = unbounded) *)
  chaos_route : Dht_snode.Runtime.route_cache_stats;
      (** faulty-run routing-cache traffic; all-zero when unbounded *)
}

let chaos ?(snodes = 12) ?(vnodes = 40) ?(keys = 600) ?(pmin = 8) ?(vmin = 4)
    ?(drop = 0.03) ?(dup = 0.015) ?(jitter = 2e-4) ?(crashes = 2)
    ?(downtime = 0.05) ?(rfactor = 1) ?(read_quorum = 1) ?(write_quorum = 1)
    ?(linger = 0.) ?(route_cap = 0) ?metrics ?trace ?(causal = false)
    ~seed () =
  let module Fault = Dht_event_sim.Fault in
  if crashes < 0 then invalid_arg "chaos: crashes < 0";
  if downtime <= 0. then invalid_arg "chaos: downtime must be positive";
  (* The registry instruments the faulty run (never the baseline), whether
     the caller wants it surfaced or not: the recovery-latency quantiles in
     the report come from its downtime histogram. *)
  let reg =
    match metrics with
    | Some reg -> reg
    | None -> Dht_telemetry.Registry.create ()
  in
  (* Writes acknowledged to the client, with the value each acked: the
     durability audit re-reads exactly this set after repair. *)
  let acked : (string, string) Hashtbl.t = Hashtbl.create (2 * keys) in
  let run_workload ?faults ?metrics ?trace ?(midburst = []) ?(midreads = []) () =
    let rt =
      Runtime.create ~pmin ~approach:(Runtime.Local { vmin }) ?faults ?metrics
        ?trace ~causal ~rfactor ~read_quorum ~write_quorum ~linger ~route_cap
        ~snodes ~seed ()
    in
    (* Mid-burst write wave, aimed (by the caller) inside the crash
       windows: writes against a dead replica are what hinted handoff is
       for. Installed before the run so the virtual clock can reach it. *)
    List.iter
      (fun (time, key, value, down_sid) ->
        (* Issue from a snode that is NOT the one crashing: the point is a
           live coordinator writing toward a dead replica. *)
        let via = (down_sid + 1) mod snodes in
        Dht_event_sim.Engine.at (Runtime.engine rt) ~time (fun () ->
            Runtime.put rt ~via
              ~on_done:(fun () -> Hashtbl.replace acked key value)
              ~key ~value ()))
      midburst;
    (* Read traffic while the cluster is degraded: quorum reads that catch
       a divergent replier are what read repair is for. Results are not
       audited here (the counted correctness sweep runs after repair). *)
    List.iter
      (fun (time, key, down_sid) ->
        let via = (down_sid + 2) mod snodes in
        Dht_event_sim.Engine.at (Runtime.engine rt) ~time (fun () ->
            Runtime.get rt ~via ~key (fun _ -> ())))
      midreads;
    for i = 0 to keys - 1 do
      let key = Printf.sprintf "user:%d" i in
      let value = string_of_int i in
      Runtime.put rt ~via:(i mod snodes)
        ~on_done:(fun () -> Hashtbl.replace acked key value)
        ~key ~value ()
    done;
    Runtime.run rt;
    let burst_start = Dht_event_sim.Engine.now (Runtime.engine rt) in
    for i = 1 to vnodes - 1 do
      Runtime.create_vnode rt
        ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
        ()
    done;
    Runtime.run rt;
    let burst_end = Dht_event_sim.Engine.now (Runtime.engine rt) in
    (rt, burst_start, burst_end)
  in
  (* Dry faultless pass: locates the creation burst in virtual time (to aim
     the crash windows at it) and gives the no-fault baseline for balance,
     traffic and makespan. *)
  let base_rt, base_start, base_end = run_workload () in
  Hashtbl.reset acked;
  (* Crash schedule: distinct snodes drawn from 1..snodes-1 (snode 0 stays
     up so the experiment always has a live bootstrap entry point), spread
     evenly across the burst, each down for [downtime]. *)
  let crash_rng = Rng.of_int (seed lxor 0x6b7a) in
  let sids = Array.init (max 0 (snodes - 1)) (fun i -> i + 1) in
  Rng.shuffle crash_rng sids;
  let n_crashes = min crashes (Array.length sids) in
  let plan =
    List.init n_crashes (fun i ->
        let frac = (float_of_int i +. 1.) /. (float_of_int n_crashes +. 1.) in
        let at = base_start +. (frac *. (base_end -. base_start)) in
        (sids.(i), at, at +. downtime))
  in
  (* One write volley per crash, fired while that snode is down. *)
  let midburst =
    List.concat_map
      (fun (sid, at, _) ->
        List.init 8 (fun j ->
            let key = Printf.sprintf "mid:%d:%d" sid j in
            (at +. (downtime /. 2.), key, Printf.sprintf "%d.%d" sid j, sid)))
      plan
  in
  (* Read volleys over the same mid-crash keys. The coarse spread, from
     late in each crash window through one downtime past the restart,
     catches repliers that missed the write (drop awaiting retransmit).
     The tight fan at the restart instant reaches the restarted replica
     within the few hundred microseconds before its hints drain (the
     restart's Ae_request round re-offers them two hops later), so some
     quorum reads see the divergent replier — which is what read repair
     is for. *)
  let midreads =
    if rfactor <= 1 then []
    else
      List.concat_map
        (fun (sid, at, at_end) ->
          let chase =
            List.init 8 (fun j ->
                let key = Printf.sprintf "mid:%d:%d" sid j in
                (at_end +. (2e-5 *. float_of_int j), key, sid))
          and spread =
            List.init 24 (fun j ->
                let key = Printf.sprintf "mid:%d:%d" sid (j mod 8) in
                let frac = float_of_int (j + 1) /. 25. in
                let start = at +. (0.6 *. downtime) in
                (start +. (frac *. (at_end +. downtime -. start)), key, sid))
          in
          chase @ spread)
        plan
  in
  let faults = Fault.create ~drop ~duplicate:dup ~jitter ~crashes:plan ~seed () in
  let rt, start_, end_ =
    run_workload ~faults ~metrics:reg ?trace ~midburst ~midreads ()
  in
  (* Faults cease: let repair finish, then verify the system converged by
     re-reading every key and auditing the full distributed state. *)
  Fault.set_drop faults 0.;
  Fault.set_duplicate faults 0.;
  Fault.set_jitter faults 0.;
  (* Repair passes first, both protocol mechanisms in their natural order:
     a quorum read sweep while replicas still diverge (client traffic
     during recovery — this is what drives read repair), then two
     anti-entropy rounds to re-sync whatever no read touched. *)
  if rfactor > 1 then begin
    for i = 0 to keys - 1 do
      Runtime.get rt
        ~via:(((i * 3) + 1) mod snodes)
        ~key:(Printf.sprintf "user:%d" i)
        (fun _ -> ())
    done;
    Runtime.run rt;
    Runtime.anti_entropy rt;
    Runtime.run rt;
    Runtime.anti_entropy rt;
    Runtime.run rt
  end;
  (* Converged now: re-read every key, counted. *)
  let wrong = ref 0 in
  for i = 0 to keys - 1 do
    Runtime.get rt
      ~via:(i * 7 mod snodes)
      ~key:(Printf.sprintf "user:%d" i)
      (fun v -> if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  (* Durability audit: every write acknowledged during the faulty run must
     be at its owner's authoritative copy. *)
  let lost_acked =
    Hashtbl.fold
      (fun key value n ->
        if Runtime.peek rt ~key = Some value then n else n + 1)
      acked 0
  in
  Runtime.record_metrics rt reg;
  (* Report percentiles come from the merge of the registered shards —
     never from find-or-create lookups, which would plant empty series in
     the registry and make the report disagree with what [--metrics-csv]
     carries. *)
  let mq ?labels name q =
    match Dht_telemetry.Registry.merged reg ?labels name with
    | None -> nan
    | Some h -> Dht_telemetry.Histogram.quantile h q
  in
  {
    chaos_vnodes = Runtime.vnode_count rt;
    chaos_sigma_qv = Runtime.sigma_qv rt;
    baseline_sigma_qv = Runtime.sigma_qv base_rt;
    chaos_makespan = end_ -. start_;
    baseline_makespan = base_end -. base_start;
    chaos_messages = Dht_event_sim.Network.messages (Runtime.network rt);
    baseline_messages =
      Dht_event_sim.Network.messages (Runtime.network base_rt);
    chaos_keys_wrong = !wrong;
    chaos_pending = Runtime.pending_operations rt;
    chaos_audit_ok = battery_ok rt;
    chaos_stats = Runtime.stats rt;
    chaos_per_tag = Dht_event_sim.Network.per_tag (Runtime.network rt);
    chaos_recovery_p50 = mq "runtime.recovery.downtime" 0.5;
    chaos_recovery_p99 = mq "runtime.recovery.downtime" 0.99;
    chaos_rfactor = rfactor;
    chaos_read_quorum = read_quorum;
    chaos_write_quorum = write_quorum;
    chaos_acked_writes = Hashtbl.length acked;
    chaos_lost_acked = lost_acked;
    chaos_repl = Runtime.repl_stats rt;
    chaos_qput_p50 = mq ~labels:[ ("op", "put") ] "runtime.quorum.latency" 0.5;
    chaos_qget_p50 = mq ~labels:[ ("op", "get") ] "runtime.quorum.latency" 0.5;
    chaos_linger = linger;
    chaos_batches = Dht_event_sim.Network.batches (Runtime.network rt);
    chaos_batched_parts =
      Dht_event_sim.Network.batched_parts (Runtime.network rt);
    chaos_batch_saved_bytes =
      Dht_event_sim.Network.batch_bytes_saved (Runtime.network rt);
    chaos_batch_occupancy_p50 = mq "runtime.batch.occupancy" 0.5;
    chaos_route_cap = route_cap;
    chaos_route = Runtime.route_cache_stats rt;
  }

(* ------------------------------------------------------------------ *)
(* Overload / gray-failure: goodput vs throughput under sustained      *)
(* over-capacity load with one slow snode                              *)

type overload_phase = {
  ph_name : string;  (* "pre" | "burst" | "post" *)
  ph_offered : int;
  ph_acked : int;
  ph_busy : int;
  ph_timely : int;
  ph_goodput : float;
  ph_throughput : float;
}

type overload_report = {
  ov_phases : overload_phase list;
  ov_slow_snode : int;
  ov_slow_factor : float;
  ov_rate : float;
  ov_burst_rate : float;
  ov_slo : float;
  ov_acked : int;
  ov_lost_acked : int;
  ov_busy_total : int;
  ov_pending : int;
  ov_audit_ok : bool;
  ov_queue_audit : string list;
  ov_busy_violations : string list;
  ov_overload : Dht_snode.Runtime.overload_stats;
  ov_stats : Dht_snode.Runtime.stats;
  ov_retx_per_op : float;
  ov_fixed_overload : Dht_snode.Runtime.overload_stats;
  ov_fixed_stats : Dht_snode.Runtime.stats;
  ov_fixed_retx_per_op : float;
  ov_recovery_ratio : float;
  ov_health : (int * float) list;
}

let overload ?(slow_factor = 100.) ?(retry_budget = 3) ?metrics ?trace
    ?(causal = false) ~seed () =
  let module Fault = Dht_event_sim.Fault in
  if slow_factor < 1. then invalid_arg "overload: slow_factor < 1";
  let snodes = 8 and vnodes = 24 and rate = 4000. and phase = 0.4
  and slo = 0.05 in
  let slow_snode = snodes - 1 in
  let burst_rate = rate *. 2. in
  let phases = [| ("pre", rate); ("burst", burst_rate); ("post", rate) |] in
  (* One workload, two runtimes: the degraded run carries every
     graceful-degradation knob, the fixed baseline none of them (same
     network, same ingress bound, same faults and the same slow snode) —
     the report's retransmissions-per-op comparison is the adaptive-RTO /
     retry-budget payoff under identical conditions. *)
  let run ~degraded =
    let faults = Fault.create ~drop:0.005 ~seed () in
    let rt =
      Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~faults
        ?metrics:(if degraded then metrics else None)
        ?trace:(if degraded then trace else None)
        ~causal:(degraded && causal) ~rfactor:3 ~read_quorum:2 ~write_quorum:2
        ~retry_budget:(if degraded then retry_budget else 0)
        ~adaptive_rto:degraded
        ~max_inflight:(if degraded then 8 else 0)
        ~admission_deadline:(if degraded then 0.02 else 0.)
        ~ingress_limit:64 ~snodes ~seed ()
    in
    let hist = Dht_check.History.create () in
    if degraded then Dht_check.History.attach hist rt;
    for i = 1 to vnodes - 1 do
      Runtime.create_vnode rt
        ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
        ()
    done;
    Runtime.run rt;
    let engine = Runtime.engine rt in
    let t0 = Engine.now engine +. 0.01 in
    let bounds =
      Array.mapi
        (fun p _ -> (t0 +. (float_of_int p *. phase),
                     t0 +. (float_of_int (p + 1) *. phase)))
        phases
    in
    (* The gray failure covers exactly the burst window: the slow snode
       keeps processing, just [slow_factor] times later. *)
    Engine.at engine ~time:(fst bounds.(1)) (fun () ->
        Fault.set_slow faults slow_snode slow_factor);
    Engine.at engine ~time:(snd bounds.(1)) (fun () ->
        Fault.clear_slow faults slow_snode);
    (* Queue-discipline audit at the worst moment (mid-burst) and again
       after the drain: bounded windows must hold even at peak pressure.
       The health snapshot must also be mid-burst: RTT estimators are soft
       state that re-converges once the gray failure clears, so a
       quiescent-time sample would score everyone healthy. *)
    let audit_findings = ref [] in
    let health_samples = ref [] in
    if degraded then
      Engine.at engine
        ~time:((fst bounds.(1) +. snd bounds.(1)) /. 2.)
        (fun () ->
          audit_findings := Runtime.queue_audit rt;
          health_samples := Runtime.peer_samples rt);
    let acked : (string, string) Hashtbl.t = Hashtbl.create 4096 in
    let offered = Array.map (fun _ -> 0) phases in
    let acked_n = Array.map (fun _ -> 0) phases in
    let timely = Array.map (fun _ -> 0) phases in
    Array.iteri
      (fun p (_, r) ->
        let start = fst bounds.(p) in
        let n = int_of_float (r *. phase) in
        offered.(p) <- n;
        for i = 0 to n - 1 do
          let time = start +. (float_of_int i /. r) in
          let key = Printf.sprintf "ov:%d:%d" p i in
          let value = Printf.sprintf "%d.%d" p i in
          let via = (p + i) mod snodes in
          Engine.at engine ~time (fun () ->
              Runtime.put rt ~via
                ~on_done:(fun () ->
                  Hashtbl.replace acked key value;
                  acked_n.(p) <- acked_n.(p) + 1;
                  if Engine.now engine -. time <= slo then
                    timely.(p) <- timely.(p) + 1)
                ~key ~value ())
        done)
      phases;
    Runtime.run rt;
    audit_findings := !audit_findings @ Runtime.queue_audit rt;
    (* Busy rejections per phase, from the recorded history (the origin's
       [on_done] never fires for a shed op). *)
    let busy = Array.map (fun _ -> 0) phases in
    let entries = Dht_check.History.entries hist in
    List.iter
      (fun (e : Dht_check.History.entry) ->
        if e.shed then
          Array.iteri
            (fun p (lo, hi) -> if e.inv >= lo && e.inv < hi then
                busy.(p) <- busy.(p) + 1)
            bounds)
      entries;
    let lost =
      Hashtbl.fold
        (fun key value n ->
          if Runtime.peek rt ~key = Some value then n else n + 1)
        acked 0
    in
    let peek key = Runtime.peek rt ~key in
    let busy_violations =
      if degraded then Dht_check.Linear.busy_never_committed ~peek entries
      else []
    in
    if degraded then
      Option.iter (fun reg -> Runtime.record_metrics rt reg) metrics;
    let report_phases =
      List.init (Array.length phases) (fun p ->
          {
            ph_name = fst phases.(p);
            ph_offered = offered.(p);
            ph_acked = acked_n.(p);
            ph_busy = busy.(p);
            ph_timely = timely.(p);
            ph_goodput = float_of_int timely.(p) /. phase;
            ph_throughput = float_of_int (acked_n.(p) + busy.(p)) /. phase;
          })
    in
    ( rt,
      report_phases,
      Hashtbl.length acked,
      lost,
      Array.fold_left ( + ) 0 busy,
      !audit_findings,
      busy_violations,
      !health_samples )
  in
  let ( rt,
        ov_phases,
        total_acked,
        lost,
        busy_total,
        queue_audit,
        violations,
        health_samples ) =
    run ~degraded:true
  in
  let frt, _, _, _, _, _, _, _ = run ~degraded:false in
  let retx (st : Runtime.stats) (ov : Runtime.overload_stats) =
    if ov.Runtime.reliable_messages = 0 then 0.
    else
      float_of_int (st.Runtime.retransmits + ov.Runtime.probes)
      /. float_of_int ov.Runtime.reliable_messages
  in
  let goodput_of name =
    match List.find_opt (fun p -> p.ph_name = name) ov_phases with
    | Some p -> p.ph_goodput
    | None -> nan
  in
  let stats = Runtime.stats rt and ov_stats = Runtime.overload_stats rt in
  let fstats = Runtime.stats frt and fov = Runtime.overload_stats frt in
  {
    ov_phases;
    ov_slow_snode = slow_snode;
    ov_slow_factor = slow_factor;
    ov_rate = rate;
    ov_burst_rate = burst_rate;
    ov_slo = slo;
    ov_acked = total_acked;
    ov_lost_acked = lost;
    ov_busy_total = busy_total;
    ov_pending = Runtime.pending_operations rt;
    ov_audit_ok = battery_ok rt;
    ov_queue_audit = queue_audit;
    ov_busy_violations = violations;
    ov_overload = ov_stats;
    ov_stats = stats;
    ov_retx_per_op = retx stats ov_stats;
    ov_fixed_overload = fov;
    ov_fixed_stats = fstats;
    ov_fixed_retx_per_op = retx fstats fov;
    ov_recovery_ratio = goodput_of "post" /. goodput_of "pre";
    ov_health =
      Dht_obsv.Health.scores
        (List.map
           (fun (s : Runtime.peer_sample) ->
             {
               Dht_obsv.Health.observer = s.Runtime.ps_observer;
               peer = s.Runtime.ps_peer;
               srtt = s.Runtime.ps_srtt;
               rttvar = s.Runtime.ps_rttvar;
               strikes = s.Runtime.ps_strikes;
               suspect = s.Runtime.ps_suspect;
               outbox = s.Runtime.ps_outbox;
               backlog = s.Runtime.ps_backlog;
             })
           health_samples);
  }

(* ------------------------------------------------------------------ *)
(* Zipf skew with active load balancing                                 *)

type skew_run = {
  sk_gini : float;  (* per-snode heat Gini at the end of the run *)
  sk_sigma : float;  (* per-snode heat σ/mean, percent *)
  sk_p50 : float;  (* data-op latency percentiles, virtual seconds *)
  sk_p99 : float;
  sk_completed : int;  (* data ops whose callback fired *)
  sk_acked : int;  (* acknowledged writes *)
  sk_lost : int;  (* acked writes the durability oracle cannot see *)
  sk_lb : Dht_snode.Runtime.lb_stats;
  sk_findings : string list;  (* invariant battery + balance audit *)
  sk_linear : string list;  (* linearizability findings *)
}

type skew_report = {
  sk_snodes : int;
  sk_zipf : float;
  sk_keys : int;
  sk_rate : float;
  sk_duration : float;
  sk_crash : bool;
  sk_off : skew_run;
  sk_on : skew_run;
}

(* A slow windowed link (0.8 ms base latency, 100 MB/s), on which a hot
   route's message rate can exceed a bounded peer window's service rate. *)
let slow_link = Network.link ~base_latency:8e-4 ~byte_time:1e-8

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (p *. float_of_int (n - 1)))))

(* The balancer's acceptance experiment: the same seeded 0.99-Zipf
   workload twice — balancer off, then on — over the same runtime shape.
   The workload is pre-generated (one op list, one key population), so
   the two runs differ only in balancing traffic; the report carries
   per-snode heat skew (Gini, σ̄), op-latency percentiles, balancer
   counters, the full invariant battery ({!Dht_check.Invariants}
   [check_balance]) and the linearizability findings for each run. With
   [crash], one snode crash-stops mid-run and restarts before the end —
   transfers must survive the churn with zero acked-write loss. *)
let skew ?(snodes = 8) ?(vnodes = 24) ?(keys = 1000) ?(zipf = 0.99)
    ?(rate = 20000.) ?(duration = 1.0) ?(max_inflight = 4) ?(heat_tau = 0.3)
    ?(crash = false) ?metrics ~seed () =
  let module Fault = Dht_event_sim.Fault in
  let module Heat = Dht_obsv.Heat in
  if keys < 1 then invalid_arg "skew: need at least one key";
  if rate <= 0. || duration <= 0. then
    invalid_arg "skew: rate and duration must be positive";
  (* One workload for both runs: op i at [i / rate] after warm-up, issued
     via snode [i mod snodes], Zipf-ranked key, four-in-five reads. *)
  let zgen = Dht_workload.Keygen.Zipf.create ~n:keys ~s:zipf in
  let wrng = Rng.of_int (seed * 7919) in
  let n_ops = int_of_float (rate *. duration) in
  let ops =
    Array.init n_ops (fun i ->
        let key = Dht_workload.Keygen.Zipf.key zgen wrng in
        let read = Rng.float wrng < 0.8 in
        (float_of_int i /. rate, i mod snodes, key, read))
  in
  let run ~balance =
    (* A fault plan (even a drop-free one) arms the reliable layer, and
       [max_inflight] bounds each peer window: queueing delay then grows
       with per-route pressure, so a hot snode is a real bottleneck the
       balancer can relieve — with neither the network is a pure delay
       model and latency cannot respond to placement. *)
    let faults =
      if max_inflight > 0 then Some (Fault.create ~seed ()) else None
    in
    let rt =
      Runtime.create ~pmin:8
        ~approach:(Runtime.Local { vmin = 4 })
        ?faults ~link:slow_link ~max_inflight ~rfactor:3 ~read_quorum:2
        ~write_quorum:2 ~heat:true ~heat_tau
        ?balance:(if balance then Some Dht_balance.Policy.default else None)
        ?metrics:(if balance then metrics else None)
        ~snodes ~seed ()
    in
    let hist = Dht_check.History.create () in
    Dht_check.History.attach hist rt;
    for i = 1 to vnodes - 1 do
      Runtime.create_vnode rt
        ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
        ()
    done;
    Runtime.run rt;
    (* Seed the key population so reads hit data. *)
    for k = 1 to keys do
      Runtime.put rt ~via:(k mod snodes)
        ~key:(Printf.sprintf "item%d" k)
        ~value:"seed" ()
    done;
    Runtime.run rt;
    let engine = Runtime.engine rt in
    let t0 = Engine.now engine +. 0.01 in
    let lats = ref [] in
    let completed = ref 0 in
    let acked : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
    let acked_n = ref 0 in
    let finish time =
      incr completed;
      lats := (Engine.now engine -. time) :: !lats
    in
    Array.iter
      (fun (dt, via, key, read) ->
        let time = t0 +. dt in
        Engine.at engine ~time (fun () ->
            if read then Runtime.get rt ~via ~key (fun _ -> finish time)
            else
              Runtime.put rt ~via
                ~on_done:(fun () ->
                  incr acked_n;
                  Hashtbl.replace acked key ();
                  finish time)
                ~key ~value:(Printf.sprintf "w%g" time) ()))
      ops;
    if balance then Runtime.arm_balancer rt ~until:(t0 +. duration);
    if crash then begin
      let victim = 2 mod snodes in
      Engine.at engine ~time:(t0 +. (duration /. 3.)) (fun () ->
          Runtime.crash_snode rt victim);
      Engine.at engine ~time:(t0 +. (2. *. duration /. 3.)) (fun () ->
          Runtime.restart_snode rt victim)
    end;
    Runtime.run rt;
    Runtime.anti_entropy rt;
    Runtime.run rt;
    if balance then
      Option.iter (fun reg -> Runtime.record_metrics rt reg) metrics;
    (* Per-snode heat totals: each partition's decayed heat attributed to
       its owner at quiescence. *)
    let per_snode = Array.make snodes 0. in
    List.iter
      (fun (r : Runtime.heat_row) ->
        if r.Runtime.hr_owner >= 0 && r.Runtime.hr_owner < snodes then
          per_snode.(r.Runtime.hr_owner) <-
            per_snode.(r.Runtime.hr_owner) +. Runtime.heat_total r)
      (Runtime.heat_rows rt);
    let sorted = Array.of_list (List.sort compare !lats) in
    let entries = Dht_check.History.entries hist in
    let peek key = Runtime.peek rt ~key in
    let durability = Dht_check.Linear.durability ~peek entries in
    let linear =
      durability @ Dht_check.Linear.busy_never_committed ~peek entries
    in
    let findings =
      Invariants.to_strings
        (Invariants.check_balance
           ~acked:(Hashtbl.fold (fun k () l -> k :: l) acked [])
           rt)
    in
    {
      sk_gini = Heat.gini per_snode;
      sk_sigma = Heat.sigma_pct per_snode;
      sk_p50 = percentile sorted 0.50;
      sk_p99 = percentile sorted 0.99;
      sk_completed = !completed;
      sk_acked = !acked_n;
      sk_lost = List.length durability;
      sk_lb = Runtime.lb_stats rt;
      sk_findings = findings;
      sk_linear = linear;
    }
  in
  {
    sk_snodes = snodes;
    sk_zipf = zipf;
    sk_keys = keys;
    sk_rate = rate;
    sk_duration = duration;
    sk_crash = crash;
    sk_off = run ~balance:false;
    sk_on = run ~balance:true;
  }

(* ------------------------------------------------------------------ *)
(* Prefix-routing scaling                                               *)

type routing_run = {
  rs_snodes : int;
  rs_vnodes : int;
  rs_level : int;  (* finger level the runtime routed at *)
  rs_cap : int;  (* per-snode routing-cache entry bound *)
  rs_ops : int;  (* routed ops executed inside the measurement window *)
  rs_hops_p50 : float;
  rs_hops_p99 : float;
  rs_hops_max : int;  (* most hops of any windowed op *)
  rs_msgs_per_op : float;  (* network messages per op, window-wide *)
  rs_cache_entries_max : int;  (* fullest cache at quiescence *)
  rs_cache_entries_total : int;
  rs_cache_bytes_max : int;  (* wire-model bytes of the fullest cache *)
  rs_cache : Dht_snode.Runtime.route_cache_stats;
  rs_retries : int;  (* hop-limit backoffs over the whole run *)
  rs_sigma : float;  (* sigma-bar(Qv), percent, at quiescence *)
  rs_findings : string list;  (* invariant battery + durability oracle *)
  rs_linear : string list;  (* durability findings *)
}

(* One cluster size of the scaling sweep: bounded prefix routing under a
   derived key population, with mid-window churn — one snode crash-stops
   and restarts, and one vnode joins, so lookups cross stale caches that
   only reply hints and the advice chain can repair. Hop and message
   counts window the measurement phase (snapshots diffed around it), so
   the creation storm does not contaminate the gated percentiles. *)
let routing_scaling ?vnodes ?(route_cap = 128) ?(max_hops = 32)
    ?(keys = 1_000_000) ?(ops = 4000) ?(rate = 20000.) ?(read_fraction = 0.5)
    ?(churn = true) ?metrics ~snodes ~seed () =
  let module Fault = Dht_event_sim.Fault in
  let vnodes = Option.value vnodes ~default:snodes in
  if vnodes < 1 then invalid_arg "routing_scaling: vnodes < 1";
  if ops < 1 then invalid_arg "routing_scaling: ops < 1";
  if rate <= 0. then invalid_arg "routing_scaling: rate must be positive";
  if read_fraction < 0. || read_fraction > 1. then
    invalid_arg "routing_scaling: read_fraction outside [0, 1]";
  let faults = if churn then Some (Fault.create ~drop:0. ~seed ()) else None in
  (* The default 1 ms RTO sits below this link's ~1.6 ms round trip, so
     every reliable message would retransmit exactly once — and Karn's
     rule would then starve the adaptive estimator of clean samples
     forever. Start above the round trip and let Jacobson tracking take
     over. *)
  let rt =
    Runtime.create ~pmin:8
      ~approach:(Runtime.Local { vmin = 4 })
      ?faults ~link:slow_link ~route_cap ~max_hops ~rto:5e-3 ~adaptive_rto:true
      ?metrics ~snodes ~seed ()
  in
  let hist = Dht_check.History.create () in
  Dht_check.History.attach hist rt;
  let engine = Runtime.engine rt in
  (* Grow the cluster as one paced phase with periodic steward
     refreshes armed across the whole growth window. All three knobs
     matter: against cold stewards a flood of simultaneous creations
     routes quadratically (every request walks stale advice from
     scratch); same-instant bursts build queues past the RTO so the
     reliable layer retransmits into its own congestion; and without a
     refresh {e during} the drain a walk stuck in a stale-advice cycle
     can only terminate by randomly restarting onto the owner's snode —
     expected Θ(N) restarts. Refreshes every 50 ms bound staleness in
     simulated time, so a stuck walk's capped backoff outlives the
     staleness, and scaling the creation rate with N keeps the number
     of O(N)-cost refresh rounds constant — construction traffic stays
     near-linear, and the growth phase ends with maintained (not
     oracle) caches — exactly the state the measurement should start
     from. *)
  let create_rate = Float.max 2000. (float_of_int snodes /. 2.) in
  let refresh_every = 0.05 in
  let c0 = Engine.now engine +. 0.001 in
  for i = 1 to vnodes - 1 do
    Engine.at engine
      ~time:(c0 +. (float_of_int (i - 1) /. create_rate))
      (fun () ->
        Runtime.create_vnode rt
          ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
          ())
  done;
  let growth = float_of_int (max 0 (vnodes - 1)) /. create_rate in
  Runtime.arm_route_refresh rt ~interval:refresh_every
    ~until:(c0 +. growth +. 0.25);
  Runtime.run rt;
  let net = Runtime.network rt in
  (* Pre-generated workload over a derived key population: member keys
     are pure functions of (salt, index), so [keys] can be millions
     without materializing anything. *)
  let pop = Dht_workload.Keygen.Population.create ~size:keys () in
  let wrng = Rng.of_int (seed * 6271) in
  let plan =
    Array.init ops (fun i ->
        let key = Dht_workload.Keygen.Population.sample pop wrng in
        let read = Rng.float wrng < read_fraction in
        (float_of_int i /. rate, i mod snodes, key, read))
  in
  let duration = float_of_int ops /. rate in
  let t0 = Engine.now engine +. 0.01 in
  let acked : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  Array.iter
    (fun (dt, via, key, read) ->
      Engine.at engine ~time:(t0 +. dt) (fun () ->
          if read then Runtime.get rt ~via ~key (fun _ -> ())
          else
            Runtime.put rt ~via
              ~on_done:(fun () -> Hashtbl.replace acked key ())
              ~key ~value:"w" ()))
    plan;
  if churn then begin
    (* The victim's cache and LRU stamps die with it; it restarts onto
       the bootstrap placement and must converge back through hints and
       refreshes. The joining vnode moves real placement mid-window, so
       every other snode's fine entries for those partitions go stale. *)
    let victim = 1 mod snodes in
    Engine.at engine ~time:(t0 +. (duration /. 3.)) (fun () ->
        Runtime.crash_snode rt victim);
    Engine.at engine ~time:(t0 +. (2. *. duration /. 3.)) (fun () ->
        Runtime.restart_snode rt victim);
    Engine.at engine ~time:(t0 +. (duration /. 2.)) (fun () ->
        Runtime.create_vnode rt
          ~id:(Vnode_id.make ~snode:(vnodes mod snodes) ~vnode:(vnodes / snodes))
          ())
  end;
  let hops0 = Runtime.route_hops rt in
  let msgs0 = Network.messages net in
  Runtime.run rt;
  let hops1 = Runtime.route_hops rt in
  let msgs1 = Network.messages net in
  let window = Array.mapi (fun i c -> c - hops0.(i)) hops1 in
  let total = Array.fold_left ( + ) 0 window in
  let hop_pct p =
    if total = 0 then nan
    else begin
      let target = p *. float_of_int total in
      let acc = ref 0 and found = ref (Array.length window - 1) in
      (try
         Array.iteri
           (fun h c ->
             acc := !acc + c;
             if float_of_int !acc >= target then begin
               found := h;
               raise Exit
             end)
           window
       with Exit -> ());
      float_of_int !found
    end
  in
  let hops_max =
    let m = ref 0 in
    Array.iteri (fun h c -> if c > 0 then m := h) window;
    !m
  in
  let entries_max = ref 0 and entries_total = ref 0 in
  for sid = 0 to snodes - 1 do
    let n = Runtime.route_cache_entries rt sid in
    entries_total := !entries_total + n;
    if n > !entries_max then entries_max := n
  done;
  let findings =
    Invariants.to_strings
      (Invariants.check_balance
         ~acked:(Hashtbl.fold (fun k () l -> k :: l) acked [])
         rt)
  in
  let peek key = Runtime.peek rt ~key in
  let linear = Dht_check.Linear.durability ~peek (Dht_check.History.entries hist) in
  Option.iter (fun reg -> Runtime.record_metrics rt reg) metrics;
  {
    rs_snodes = snodes;
    rs_vnodes = vnodes + (if churn then 1 else 0);
    rs_level = Runtime.route_level rt;
    rs_cap = route_cap;
    rs_ops = total;
    rs_hops_p50 = hop_pct 0.50;
    rs_hops_p99 = hop_pct 0.99;
    rs_hops_max = hops_max;
    rs_msgs_per_op =
      (if total = 0 then nan else float_of_int (msgs1 - msgs0) /. float_of_int total);
    rs_cache_entries_max = !entries_max;
    rs_cache_entries_total = !entries_total;
    (* Two 16-byte wire entries per binding — the same model [Wire]
       charges for a piggybacked placement. *)
    rs_cache_bytes_max = !entries_max * 32;
    rs_cache = Runtime.route_cache_stats rt;
    rs_retries = Runtime.retries rt;
    rs_sigma = Runtime.sigma_qv rt;
    rs_findings = findings;
    rs_linear = linear;
  }

let routing_hit_pct r =
  let hits = r.rs_cache.Runtime.rcs_hits in
  let probes = hits + r.rs_cache.Runtime.rcs_misses in
  if probes = 0 then 0. else 100. *. float_of_int hits /. float_of_int probes

type coexist_report = {
  dht_names : string list;
  error_before : float list;
  error_after_load : float list;
  error_after_retarget : float list;
  coexist_added : int;
  coexist_removed : int;
  coexist_blocked : int;
}

let coexist ?(load = 0.6) ~seed () =
  let module Registry = Dht_registry.Registry in
  let total_vnodes = 96 in
  let cluster = Cluster.Topology.generations ~counts:generations in
  let reg = Registry.create ~cluster ~seed () in
  let names = [ "store-a"; "store-b" ] in
  List.iter
    (fun name -> Registry.add_dht reg ~name ~pmin:32 ~vmin:8 ~total_vnodes)
    names;
  let errors () = List.map (fun name -> Registry.tracking_error reg ~name) names in
  let error_before = errors () in
  (* An external application lands on the first nodes. *)
  for node = 0 to 3 do
    Registry.set_external_load reg ~node load
  done;
  let error_after_load = errors () in
  let reports =
    List.map
      (fun name -> Registry.retarget reg ~name ~total_vnodes)
      names
  in
  let error_after_retarget = errors () in
  {
    dht_names = names;
    error_before;
    error_after_load;
    error_after_retarget;
    coexist_added =
      List.fold_left (fun a r -> a + r.Registry.added) 0 reports;
    coexist_removed =
      List.fold_left (fun a r -> a + r.Registry.removed) 0 reports;
    coexist_blocked =
      List.fold_left (fun a r -> a + r.Registry.blocked) 0 reports;
  }
