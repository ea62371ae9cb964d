(* One benchmark run: one workload, one seed, in this process.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--trace-out FILE]

   Trace 0 measures the end-to-end metrics with tracing off. Trace 1 runs
   the same seed twice — once untraced, once with bench-side spans — and
   reports the per-layer metrics: public counters, span self times, layer
   kernels fed from the end state, and the tracing overhead. Both modes
   check the outputs after the window; the last stdout line is one JSON
   object {correct, attempted, failed, metrics}. *)

module W = Workloads
module R = Dht_snode.Runtime
module Engine = Dht_event_sim.Engine
module Hash = Dht_hashes.Hash
module Space = Dht_hashspace.Space
module Keygen = Dht_workload.Keygen
module History = Dht_check.History
module Linear = Dht_check.Linear
module Invariants = Dht_check.Invariants
module Rng = Dht_prng.Rng

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Virtual latencies (ms) of settled ops of one kind, sorted. *)
let latencies (w : W.window) kind =
  let acc = ref [] in
  for i = 0 to w.W.n - 1 do
    let s = Float.Array.get w.W.settled i in
    if Bytes.get w.W.kind i = kind && not (Float.is_nan s) then
      acc := ((s -. Float.Array.get w.W.sched i) *. 1000.) :: !acc
  done;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let settled_count (w : W.window) =
  let c = ref 0 in
  Float.Array.iter (fun s -> if not (Float.is_nan s) then incr c) w.W.settled;
  !c

(* ------------------------------------------------------------------ *)
(* Output checks (outside the timed window)                            *)

(* Anti-entropy after the window: at least one round, then rounds until
   every replica agrees (bounded). Returns the round count and the last
   divergence audit. *)
let converge shape cluster ~spans =
  if shape.W.rfactor = 1 then (0, [])
  else begin
    let rt = cluster.W.rt in
    let rounds = ref 0 in
    let rec loop () =
      incr rounds;
      Spans.with_ spans "merkle.ae_round" (fun () ->
          R.anti_entropy rt;
          R.run rt);
      let diverged = Spans.with_ spans "check.divergence" (fun () -> R.replica_divergence rt) in
      if diverged <> [] && !rounds < 8 then loop () else diverged
    in
    let diverged = loop () in
    (!rounds, diverged)
  end

(* Every range result against an oracle over the keys the benchmark
   wrote: exactly the written keys hashing into [lo, hi), each with a
   value some put of that key wrote, no older than the latest put acked
   before the scan was issued. *)
let check_ranges shape cluster (w : W.window) =
  if w.W.ranges = [] then []
  else begin
    let space = R.space cluster.W.rt in
    let pop = cluster.W.pop in
    let points =
      Array.init shape.W.keys (fun k -> (Hash.string space (Keygen.Population.nth pop k), k))
    in
    Array.sort compare points;
    let index = Hashtbl.create shape.W.keys in
    Array.iter (fun (_, k) -> Hashtbl.replace index (Keygen.Population.nth pop k) k) points;
    let puts = Array.make shape.W.keys [] in
    for i = w.W.n - 1 downto 0 do
      if Bytes.get w.W.kind i = W.k_put then puts.(w.W.key.(i)) <- i :: puts.(w.W.key.(i))
    done;
    let first_at lo =
      let a = ref 0 and b = ref (Array.length points) in
      while !a < !b do
        let m = (!a + !b) / 2 in
        if fst points.(m) < lo then a := m + 1 else b := m
      done;
      !a
    in
    let findings = ref [] in
    let bad fmt = Printf.ksprintf (fun s -> findings := s :: !findings) fmt in
    List.iter
      (fun (r : W.range_result) ->
        let issued = Float.Array.get w.W.sched r.W.r_op in
        let done_at = Float.Array.get w.W.settled r.W.r_op in
        let expected = ref [] in
        let j = ref (first_at r.W.r_lo) in
        while !j < Array.length points && fst points.(!j) < r.W.r_hi do
          expected := Keygen.Population.nth pop (snd points.(!j)) :: !expected;
          incr j
        done;
        let expected = List.sort compare !expected in
        let got = List.map fst r.W.r_cells in
        if got <> expected then
          bad "range op %d [%d,%d): %d keys, oracle %d" r.W.r_op r.W.r_lo r.W.r_hi
            (List.length got) (List.length expected);
        List.iter
          (fun (key, value) ->
            match Hashtbl.find_opt index key with
            | None -> bad "range op %d: unknown key %S" r.W.r_op key
            | Some k ->
                let written_at =
                  if value = W.preload_value k then Some Float.neg_infinity
                  else
                    match int_of_string_opt (String.sub value 1 (String.length value - 1)) with
                    | Some i
                      when value.[0] = 'w' && i < w.W.n && Bytes.get w.W.kind i = W.k_put
                           && w.W.key.(i) = k
                           && Float.Array.get w.W.sched i <= done_at ->
                        Some (Float.Array.get w.W.sched i)
                    | _ -> None
                in
                match written_at with
                | None -> bad "range op %d: key %S holds %S, never written" r.W.r_op key value
                | Some at ->
                    let stale =
                      List.exists
                        (fun p ->
                          let acked = Float.Array.get w.W.settled p in
                          acked < issued && Float.Array.get w.W.sched p > at)
                        puts.(k)
                    in
                    if stale then bad "range op %d: key %S returned a stale value" r.W.r_op key)
          r.W.r_cells)
      w.W.ranges;
    List.rev !findings
  end

(* Linearizability (keys within the checker's per-key bound), session
   guarantees and acked-write durability (every key). *)
let check_history cluster =
  let rt = cluster.W.rt in
  let peek key = R.peek rt ~key in
  let small = ref [] and big = ref [] and over = ref 0 in
  List.iter
    (fun (_, es) ->
      if List.length es <= Linear.max_ops then small := List.rev_append es !small
      else begin
        incr over;
        big := List.rev_append es !big
      end)
    (History.by_key (History.entries cluster.W.hist));
  let findings =
    Linear.full ~peek !small
    @ Linear.read_your_writes !big @ Linear.monotonic_reads !big
    @ Linear.durability ~peek !big
    @ Linear.busy_never_committed ~peek !big
  in
  (findings, !over)

(* Ops issued vs settled, cross-checked against the recorded history. *)
let check_settlement cluster (w : W.window) =
  let rt = cluster.W.rt in
  let settled_point = ref 0 in
  for i = 0 to w.W.n - 1 do
    if Bytes.get w.W.kind i <> W.k_range && not (Float.Array.get w.W.settled i |> Float.is_nan) then
      incr settled_point
  done;
  let entries = History.entries cluster.W.hist in
  let window_completed =
    List.length
      (List.filter
         (fun (e : History.entry) ->
           e.History.inv >= w.W.t0
           && e.History.ret <> None
           && not e.History.failed)
         entries)
  in
  let f = ref [] in
  if R.pending_operations rt <> 0 then
    f := Printf.sprintf "%d operations still pending" (R.pending_operations rt) :: !f;
  if window_completed <> !settled_point then
    f := Printf.sprintf "history completed %d ops, benchmark saw %d" window_completed !settled_point :: !f;
  !f

let check_samples shape (w : W.window) =
  let need kind name p =
    let n = Array.length (latencies w kind) in
    let beyond = int_of_float (Float.of_int n *. (1. -. p)) in
    if beyond < 10 then [ Printf.sprintf "%s: %d samples leave %d beyond p%g" name n beyond (p *. 100.) ]
    else []
  in
  need W.k_get "get" 0.999 @ need W.k_put "put" 0.999
  @ if shape.W.range_share > 0. then need W.k_range "range" 0.99 else []

let run_checks shape cluster w ~diverged ~spans =
  let rt = cluster.W.rt in
  let linear, over =
    Spans.with_ spans "check.linear" (fun () -> check_history cluster)
  in
  let invariants =
    Spans.with_ spans "check.invariants" (fun () ->
        let acked =
          List.filter_map
            (fun (e : History.entry) ->
              match e.History.op with
              | History.Put { key; _ } when e.History.ret <> None && not e.History.failed -> Some key
              | _ -> None)
            (History.entries cluster.W.hist)
        in
        Invariants.to_strings
          (if shape.W.balance then Invariants.check_balance ~acked rt
           else Invariants.check_runtime rt))
  in
  let replicas =
    diverged
    @ Spans.with_ spans "check.replicas" (fun () ->
          if shape.W.rfactor > 1 then R.merkle_audit rt else [])
  in
  let checks =
    [
      ("settlement", check_settlement cluster w);
      ("history", linear);
      ("invariants", invariants);
      ("replicas", replicas);
      ("ranges", check_ranges shape cluster w);
      ("samples", check_samples shape w);
    ]
  in
  (checks, over)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let metrics : (string * float * string) list ref = ref []
let emit name value unit = metrics := (name, value, unit) :: !metrics

let window_cpu (w : W.window) = w.W.after.W.cpu -. w.W.before.W.cpu

let end_to_end shape (w : W.window) ~setup_s ~peak_heap_mb =
  let ops = settled_count w in
  let d f = f w.W.after - f w.W.before in
  let gets = latencies w W.k_get and puts = latencies w W.k_put in
  let slo = ref 0 in
  for i = 0 to w.W.n - 1 do
    let s = Float.Array.get w.W.settled i in
    if (not (Float.is_nan s)) && (s -. Float.Array.get w.W.sched i) *. 1000. <= shape.W.slo_ms then incr slo
  done;
  emit "setup_s" setup_s "s";
  emit "host_ops_per_s" (median w.W.slice_rates) "1/s";
  emit "peak_heap_mb" peak_heap_mb "MB";
  emit "get_p50_ms" (pct gets 0.5) "ms";
  emit "get_p999_ms" (pct gets 0.999) "ms";
  emit "put_p50_ms" (pct puts 0.5) "ms";
  emit "put_p999_ms" (pct puts 0.999) "ms";
  emit "msgs_per_op" (ratio (d (fun s -> s.W.msgs)) ops) "1/op";
  emit "bytes_per_op" (ratio (d (fun s -> s.W.bytes)) ops) "B/op";
  emit "slo_pct" (100. *. ratio !slo w.W.n) "%"

(* Wire-tag families for the per-family message rates. *)
let family tag =
  let tag = Kernels.strip_req tag in
  let has p = String.length tag >= String.length p && String.sub tag 0 (String.length p) = p in
  if tag = "batch" then "batch"
  else if tag = "ack" then "ack"
  else if has "routed:create" || has "create" || has "prepare" || has "transfer" || has "all-received"
          || has "commit" || has "remove" || has "lpdr" then "create"
  else if has "routed:" then "route"
  else if has "repl:digest" || has "repl:sync" || has "ae-" || has "mt:" then "ae"
  else if has "repl:" then "repl"
  else if has "lb:" then "lb"
  else "data"

let families = [ "data"; "ack"; "repl"; "ae"; "lb"; "route"; "create"; "batch" ]

let tag_delta (w : W.window) =
  let before = Hashtbl.create 64 in
  List.iter (fun (t, m, _) -> Hashtbl.replace before t m) w.W.before.W.per_tag;
  List.filter_map
    (fun (t, m, _) ->
      let d = m - Option.value ~default:0 (Hashtbl.find_opt before t) in
      if d > 0 then Some (t, d) else None)
    w.W.after.W.per_tag

let per_layer shape cluster (w : W.window) ~untraced ~spans ~kernels ~growth_cpu ~ae_rounds
    ~range_scan_ms ~record_ms ~over_bound =
  let rt = cluster.W.rt in
  let ops = settled_count w in
  let d f = f w.W.after - f w.W.before in
  let du f = f untraced.W.after - f untraced.W.before in
  let k name = List.assoc name kernels in
  let events = d (fun s -> s.W.dispatched) in
  let tags = tag_delta w in
  (* event_sim *)
  emit "event_sim.events_per_op" (ratio events ops) "1/op";
  emit "event_sim.step_ns" (k "event_sim.step").Kernels.ns "ns";
  emit "event_sim.step_words" (k "event_sim.step").Kernels.words "words";
  emit "event_sim.pending_peak" (float_of_int (Engine.max_pending (R.engine rt))) "count";
  emit "network.batch_parts_per_batch"
    (ratio (d (fun s -> s.W.parts)) (d (fun s -> s.W.batches)))
    "count";
  List.iter
    (fun fam ->
      let n = List.fold_left (fun a (t, m) -> if family t = fam then a + m else a) 0 tags in
      emit ("network.msgs_per_op." ^ fam) (ratio n ops) "1/op")
    families;
  (* snode *)
  let run_self = Spans.self_ns spans "runtime.run" in
  emit "snode.run_ns_per_event" (ratio run_self events) "ns";
  emit "snode.issue_ns" (ratio (Spans.total_ns spans "snode.issue") (Spans.count spans "snode.issue")) "ns";
  emit "snode.wire_size_ns" (k "snode.wire_size").Kernels.ns "ns";
  emit "snode.wire_size_words" (k "snode.wire_size").Kernels.words "words";
  emit "snode.retransmits_per_op" (ratio (d (fun s -> s.W.retransmits)) ops) "1/op";
  emit "snode.backpressured_per_op" (ratio (d (fun s -> s.W.backpressured)) ops) "1/op";
  emit "snode.sheds" (float_of_int (d (fun s -> s.W.sheds))) "count";
  emit "snode.failed_pct" (100. *. ratio (w.W.n - ops) w.W.n) "%";
  let ranges = latencies w W.k_range in
  emit "snode.range_ops" (float_of_int (Array.length ranges)) "count";
  emit "snode.range_p50_ms" (pct ranges 0.5) "ms";
  emit "snode.range_p99_ms" (pct ranges 0.99) "ms";
  emit "snode.range_scan_ms" range_scan_ms "ms";
  (* hashes, hashspace *)
  emit "hashes.string_ns" (k "hashes.string").Kernels.ns "ns";
  emit "hashspace.find_point_ns" (k "hashspace.find_point").Kernels.ns "ns";
  emit "hashspace.find_point_words" (k "hashspace.find_point").Kernels.words "words";
  emit "hashspace.learn_ns" (k "hashspace.learn").Kernels.ns "ns";
  emit "hashspace.learn_words" (k "hashspace.learn").Kernels.words "words";
  (* routing *)
  let hops = Array.mapi (fun i c -> c - w.W.before.W.hops.(i)) w.W.after.W.hops in
  let routed = Array.fold_left ( + ) 0 hops in
  let hop_pct p =
    if routed = 0 then 0.
    else begin
      let target = int_of_float (Float.ceil (p *. float_of_int routed)) in
      let acc = ref 0 and found = ref (-1) in
      Array.iteri
        (fun h c ->
          acc := !acc + c;
          if !found < 0 && !acc >= target then found := h)
        hops;
      float_of_int !found
    end
  in
  emit "routing.hops_p50" (hop_pct 0.5) "hops";
  emit "routing.hops_p99" (hop_pct 0.99) "hops";
  let hits = d (fun s -> s.W.rc_hits) and misses = d (fun s -> s.W.rc_misses) in
  emit "routing.cache_hit_pct" (100. *. ratio hits (hits + misses)) "%";
  emit "routing.evictions_per_op" (ratio (d (fun s -> s.W.rc_evictions)) ops) "1/op";
  emit "routing.retries_per_op" (ratio (d (fun s -> s.W.retries)) ops) "1/op";
  emit "routing.cache_entries_peak" (float_of_int (R.route_cache_stats rt).R.rcs_peak) "count";
  (* core *)
  let creations = shape.W.vnodes - 1 in
  emit "core.add_vnode_us" ((k "core.grow").Kernels.ns /. float_of_int creations /. 1000.) "us";
  emit "core.lookup_ns" (k "core.lookup").Kernels.ns "ns";
  emit "core.creations_per_host_s" (float_of_int creations /. growth_cpu) "1/s";
  emit "core.sigma_qv_pct" (R.sigma_qv rt) "%";
  (* kv, replication, merkle *)
  emit "kv.lww_merge_ns" (k "kv.lww_merge").Kernels.ns "ns";
  emit "kv.lww_merge_words" (k "kv.lww_merge").Kernels.words "words";
  emit "replication.read_repairs_per_op" (ratio (d (fun s -> s.W.read_repairs)) ops) "1/op";
  emit "replication.hints_stored" (float_of_int (d (fun s -> s.W.hints_stored))) "count";
  emit "replication.hints_flushed" (float_of_int (d (fun s -> s.W.hints_flushed))) "count";
  emit "replication.replicas_ns" (k "replication.replicas").Kernels.ns "ns";
  emit "merkle.ae_rounds" (float_of_int (shape.W.ae_rounds + ae_rounds)) "count";
  emit "merkle.ae_frames" (float_of_int (d (fun s -> s.W.ae_frames))) "count";
  emit "merkle.ae_keys_sent" (float_of_int (d (fun s -> s.W.ae_keys_sent))) "count";
  emit "merkle.ae_round_s"
    (ratio (Spans.total_ns spans "merkle.ae_round") (Spans.count spans "merkle.ae_round") *. 1e-9)
    "s";
  emit "merkle.build_ms" ((k "merkle.build").Kernels.ns *. 1e-6) "ms";
  emit "merkle.build_words" (k "merkle.build").Kernels.words "words";
  (* balance *)
  emit "balance.transfers" (float_of_int (d (fun s -> s.W.lb_transfers))) "count";
  let heat = Array.make shape.W.snodes 0. in
  List.iter
    (fun (r : R.heat_row) ->
      if r.R.hr_owner >= 0 then heat.(r.R.hr_owner) <- heat.(r.R.hr_owner) +. R.heat_total r)
    (R.heat_rows rt);
  emit "balance.heat_gini" (Dht_obsv.Heat.gini heat) "ratio";
  (* telemetry *)
  emit "telemetry.observe_ns" (k "telemetry.observe").Kernels.ns "ns";
  emit "telemetry.record_metrics_ms" record_ms "ms";
  (* GC, from the untraced window *)
  let uops = settled_count untraced in
  emit "gc.minor_words_per_op"
    ((untraced.W.after.W.minor_words -. untraced.W.before.W.minor_words) /. float_of_int (max 1 uops))
    "words";
  emit "gc.promoted_words_per_op"
    ((untraced.W.after.W.promoted_words -. untraced.W.before.W.promoted_words)
    /. float_of_int (max 1 uops))
    "words";
  emit "gc.major_collections" (float_of_int (du (fun s -> s.W.major_collections))) "count";
  (* checks *)
  emit "check.linear_s" (float_of_int (Spans.total_ns spans "check.linear") *. 1e-9) "s";
  emit "check.invariants_s" (float_of_int (Spans.total_ns spans "check.invariants") *. 1e-9) "s";
  emit "check.divergence_s" (float_of_int (Spans.total_ns spans "check.divergence") *. 1e-9) "s";
  emit "check.replicas_s" (float_of_int (Spans.total_ns spans "check.replicas") *. 1e-9) "s";
  emit "check.keys_over_linear_bound" (float_of_int over_bound) "count";
  (* Whole run: host time explained by public call counts x kernel
     costs, and what the spans cost. *)
  let host_ns = window_cpu untraced *. 1e9 in
  let counted =
    (float_of_int events *. (k "event_sim.step").Kernels.ns)
    +. (float_of_int (d (fun s -> s.W.msgs)) *. (k "snode.wire_size").Kernels.ns)
    +. (float_of_int (hits + misses) *. (k "hashspace.find_point").Kernels.ns)
  in
  emit "attributed_pct" (100. *. counted /. host_ns) "%";
  emit "trace_overhead_pct" (100. *. ((window_cpu w /. window_cpu untraced) -. 1.)) "%"

(* ------------------------------------------------------------------ *)
(* Post-window measurements for the traced run                         *)

let range_scans shape cluster ~seed ~spans =
  if not shape.W.preload then 0.
  else begin
    let rt = cluster.W.rt in
    let size = Space.size (R.space rt) in
    let width = max 1 (size / 1000) in
    let rng = Rng.of_int (seed + 99) in
    let times =
      Array.init 20 (fun _ ->
          let lo = Rng.int rng (size - width) in
          let via = Rng.int rng shape.W.snodes in
          let t0 = Spans.now_ns () in
          Spans.with_ spans "snode.range_scan" (fun () ->
              R.range_get rt ~via ~lo ~hi:(lo + width) ignore;
              R.run rt);
          float_of_int (Spans.now_ns () - t0) *. 1e-6)
    in
    median times
  end

let record_metrics_ms cluster ~spans =
  median
    (Array.init 3 (fun _ ->
         let t0 = Spans.now_ns () in
         Spans.with_ spans "telemetry.record_metrics" (fun () ->
             R.record_metrics cluster.W.rt (Dht_telemetry.Registry.create ()));
         float_of_int (Spans.now_ns () - t0) *. 1e-6))

let kernel_inputs shape cluster (w : W.window) =
  let rt = cluster.W.rt in
  let view = R.view rt in
  let layout = ref [] and cells = ref [] in
  List.iter
    (fun (sv : R.View.snode_view) ->
      let n = ref (List.length sv.R.View.replicas) in
      List.iter
        (fun (vv : R.View.vnode_view) ->
          n := !n + List.length vv.R.View.data;
          List.iter (fun sp -> layout := (sp, sv.R.View.sid) :: !layout) vv.R.View.spans)
        sv.R.View.vnodes;
      cells := float_of_int !n :: !cells)
    view.R.View.snodes;
  let depths = Array.sub w.W.depths 0 (Array.length w.W.depths - 1) in
  {
    Kernels.space = R.space rt;
    layout = List.rev !layout;
    snodes = shape.W.snodes;
    vnodes = shape.W.vnodes;
    rfactor = shape.W.rfactor;
    cells_per_snode = max 1 (int_of_float (median (Array.of_list !cells)));
    depth = max 1 (int_of_float (median (Array.map float_of_int depths)));
    tag_mix = tag_delta w;
    keys = Array.init 1024 (fun i -> Keygen.Population.nth cluster.W.pop (i * (shape.W.keys / 1024)));
  }

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)

(* Several set-ups in this process; [setup_s] is the median of their CPU
   times and the last one is kept for the window. *)
let set_up shape ~seed =
  let cpus = Array.make shape.W.setups 0. and growth = Array.make shape.W.setups 0. in
  let last = ref None in
  for i = 0 to shape.W.setups - 1 do
    last := None;
    Gc.full_major ();
    let c = W.setup shape ~seed ~spans:Spans.off in
    cpus.(i) <- c.W.growth_cpu +. c.W.load_cpu;
    growth.(i) <- c.W.growth_cpu;
    last := Some c
  done;
  Gc.full_major ();
  Printf.printf "set-up CPU (s):";
  Array.iter (Printf.printf " %.3f") cpus;
  print_newline ();
  (median cpus, median growth, Option.get !last)

(* The per-layer run: the same seed again with bench-side spans, then the
   post-window measurements, the checks and the kernels. *)
let traced_run shape ~seed ~n ~untraced ~growth_cpu ~trace_out =
  Gc.full_major ();
  let spans = Spans.create true in
  let cluster = Spans.with_ spans "setup" (fun () -> W.setup shape ~seed ~spans) in
  let w = W.run_window shape cluster ~seed ~n ~spans in
  let ae_rounds, diverged = converge shape cluster ~spans in
  let range_scan_ms = range_scans shape cluster ~seed ~spans in
  let record_ms = record_metrics_ms cluster ~spans in
  let checks, over = run_checks shape cluster w ~diverged ~spans in
  let kernels = Kernels.run (kernel_inputs shape cluster w) in
  per_layer shape cluster w ~untraced ~spans ~kernels ~growth_cpu ~ae_rounds ~range_scan_ms
    ~record_ms ~over_bound:over;
  if trace_out <> "" then Spans.write_chrome spans trace_out;
  Printf.printf "self time by span (ms):";
  List.iter
    (fun name -> Printf.printf " %s=%.1f" name (float_of_int (Spans.self_ns spans name) *. 1e-6))
    (Spans.names spans);
  print_newline ();
  (checks, w)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref 0 in
  let trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S nominal host seconds of the window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace of the bench spans");
    ]
    (fun a -> die "unexpected argument %S" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let shape =
    match W.find !workload with
    | Some s -> s
    | None ->
        die "unknown workload %S (known: %s)" !workload
          (String.concat ", " (List.map (fun s -> s.W.name) W.all))
  in
  if !seed < 0 then die "--seed must be given and non-negative";
  if !seconds < 1 then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let n = W.window_ops shape ~seconds:!seconds in
  Printf.printf "workload %s seed %d: %d ops at %.0f virtual ops/s, %d set-ups\n%!" shape.W.name
    !seed n shape.W.rate shape.W.setups;
  let setup_s, growth_cpu, cluster = set_up shape ~seed:!seed in
  let w = W.run_window shape cluster ~seed:!seed ~n ~spans:Spans.off in
  let checks, w =
    if !trace = 0 then begin
      let peak_heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
      in
      let _, diverged = converge shape cluster ~spans:Spans.off in
      let checks, _ = run_checks shape cluster w ~diverged ~spans:Spans.off in
      end_to_end shape w ~setup_s ~peak_heap_mb;
      (checks, w)
    end
    else traced_run shape ~seed:!seed ~n ~untraced:w ~growth_cpu ~trace_out:!trace_out
  in
  let ok = ref true in
  List.iter
    (fun (name, findings) ->
      if findings = [] then Printf.printf "check %-10s ok\n" name
      else begin
        ok := false;
        Printf.printf "check %-10s FAILED (%d)\n" name (List.length findings);
        List.iteri (fun i f -> if i < 5 then Printf.printf "  %s\n" f) findings
      end)
    checks;
  Printf.printf "slice rates (ops/CPU-s):";
  Array.iter (fun r -> Printf.printf " %.0f" r) w.W.slice_rates;
  print_newline ();
  let metrics = List.rev !metrics in
  List.iter (fun (name, v, unit) -> Printf.printf "%-36s %14.6g %s\n" name v unit) metrics;
  let settled = settled_count w in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" !ok w.W.n
    (w.W.n - settled)
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
          metrics))
