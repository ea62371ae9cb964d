(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks: one Test.make per figure/experiment
   kernel (the simulation that regenerates it) plus the core DHT operations,
   so regressions in any reproduction path are visible as timings.

   Part 2 — BENCH_runtime.json: a machine-readable snapshot of the snode
   runtime (host ops/s, simulated messages/bytes, latency and hop
   quantiles from the telemetry histograms).

   Part 3 — figure regeneration: prints the series of every paper figure
   (4-9) and the section-4.1.1 claims at a reduced number of runs, in the
   same rows the paper reports. `bin/dht_sim.exe` produces the full
   100-run versions. *)

open Bechamel
open Toolkit
open Dht_core
module Figures = Dht_experiments.Figures
module Extensions = Dht_experiments.Extensions
module Curve = Dht_experiments.Curve
module Sims = Dht_experiments.Sims
module Rng = Dht_prng.Rng
module Table = Dht_report.Table
module Registry = Dht_telemetry.Registry
module Histogram = Dht_telemetry.Histogram

let vid i = Vnode_id.make ~snode:i ~vnode:0

(* ------------------------------------------------------------------ *)
(* Part 1: micro-benchmarks                                            *)

let bench_fig4_kernel pair =
  Test.make
    ~name:(Printf.sprintf "fig4: local growth (Pmin,Vmin)=(%d,%d), 128 vnodes" pair pair)
    (Staged.stage (fun () ->
         Sims.local_curve ~pmin:pair ~vmin:pair ~vnodes:128
           ~sample:Local_dht.sigma_qv (Rng.of_int 1)))

let bench_fig6_kernel =
  Test.make ~name:"fig6: local growth Pmin=32 Vmin=8, 128 vnodes"
    (Staged.stage (fun () ->
         Sims.local_curve ~pmin:32 ~vmin:8 ~vnodes:128 ~sample:Local_dht.sigma_qv
           (Rng.of_int 1)))

let bench_fig7_kernel =
  Test.make ~name:"fig7/8: group dynamics sampling, 128 vnodes"
    (Staged.stage (fun () ->
         Sims.local_curves ~pmin:32 ~vmin:32 ~vnodes:128
           ~samples:
             [|
               (fun d -> float_of_int (Local_dht.group_count d));
               Local_dht.sigma_qg;
             |]
           (Rng.of_int 1)))

let bench_fig9_ch_kernel =
  Test.make ~name:"fig9: CH ring growth, 128 nodes x 32 points"
    (Staged.stage (fun () ->
         Sims.ch_curve ~points_per_node:32 ~nodes:128 (Rng.of_int 1)))

let bench_global_kernel =
  Test.make ~name:"global approach growth, 128 vnodes"
    (Staged.stage (fun () ->
         Sims.global_curve ~pmin:32 ~vnodes:128 ~sample:Global_dht.sigma_qv ()))

let bench_creation_op =
  (* Amortized cost of one local-approach vnode creation (without metric
     sampling): grow a fresh 256-vnode DHT per run. *)
  Test.make ~name:"local approach: 256 creations (no sampling)"
    (Staged.stage (fun () ->
         let dht =
           Local_dht.create ~pmin:32 ~vmin:32 ~rng:(Rng.of_int 3) ~first:(vid 0) ()
         in
         for i = 1 to 255 do
           ignore (Local_dht.add_vnode dht ~id:(vid i))
         done))

let bench_lookup =
  let dht =
    Local_dht.create ~pmin:32 ~vmin:32 ~rng:(Rng.of_int 4) ~first:(vid 0) ()
  in
  for i = 1 to 511 do
    ignore (Local_dht.add_vnode dht ~id:(vid i))
  done;
  let space = (Local_dht.params dht).Params.space in
  let rng = Rng.of_int 5 in
  let size = Dht_hashspace.Space.size space in
  Test.make ~name:"lookup: route one hash index (512-vnode DHT)"
    (Staged.stage (fun () -> ignore (Local_dht.lookup dht (Rng.int rng size))))

let bench_removal =
  Test.make ~name:"ext-churn: 64 creations + 32 removals"
    (Staged.stage (fun () ->
         let dht =
           Local_dht.create ~pmin:16 ~vmin:8 ~rng:(Rng.of_int 8) ~first:(vid 0) ()
         in
         for i = 1 to 63 do
           ignore (Local_dht.add_vnode dht ~id:(vid i))
         done;
         for i = 0 to 31 do
           ignore (Local_dht.remove_vnode dht ~id:(vid (2 * i)))
         done))

let bench_snode_runtime =
  Test.make ~name:"ext-distributed: snode runtime, 32 concurrent creations"
    (Staged.stage (fun () ->
         let rt =
           Dht_snode.Runtime.create ~pmin:8 ~approach:(Dht_snode.Runtime.Local { vmin = 4 }) ~snodes:8 ~seed:9 ()
         in
         for i = 1 to 32 do
           Dht_snode.Runtime.create_vnode rt
             ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8))
             ()
         done;
         Dht_snode.Runtime.run rt))

let bench_snode_runtime_faulty =
  Test.make
    ~name:"ext-chaos: snode runtime, 32 creations, 5% drop + 2% dup"
    (Staged.stage (fun () ->
         let faults =
           Dht_snode.Runtime.Fault.create ~drop:0.05 ~duplicate:0.02
             ~jitter:1e-4 ~seed:9 ()
         in
         let rt =
           Dht_snode.Runtime.create ~pmin:8 ~approach:(Dht_snode.Runtime.Local { vmin = 4 }) ~faults ~snodes:8 ~seed:9 ()
         in
         for i = 1 to 32 do
           Dht_snode.Runtime.create_vnode rt
             ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8))
             ()
         done;
         Dht_snode.Runtime.run rt))

let bench_snapshot =
  let dht =
    Local_dht.create ~pmin:32 ~vmin:16 ~rng:(Rng.of_int 10) ~first:(vid 0) ()
  in
  for i = 1 to 255 do
    ignore (Local_dht.add_vnode dht ~id:(vid i))
  done;
  Test.make ~name:"snapshot: save + load a 256-vnode DHT"
    (Staged.stage (fun () ->
         match
           Snapshot.load_local ~rng:(Rng.of_int 11) (Snapshot.save_local dht)
         with
         | Ok _ -> ()
         | Error m -> failwith m))

let bench_quorum_put_get =
  Test.make
    ~name:"ext-replication: 64 quorum puts + gets (rfactor 3, R=W=2)"
    (Staged.stage (fun () ->
         let rt =
           Dht_snode.Runtime.create ~rfactor:3 ~read_quorum:2 ~write_quorum:2
             ~snodes:5 ~seed:11 ()
         in
         for i = 0 to 63 do
           Dht_snode.Runtime.put rt ~via:(i mod 5)
             ~key:("q-" ^ string_of_int i) ~value:"v" ()
         done;
         Dht_snode.Runtime.run rt;
         for i = 0 to 63 do
           Dht_snode.Runtime.get rt ~via:(i mod 5) ~key:("q-" ^ string_of_int i)
             (fun _ -> ())
         done;
         Dht_snode.Runtime.run rt))

let run_benchmarks () =
  print_endline "== Micro-benchmarks (Bechamel, OLS time/run) ==";
  let tests =
    Test.make_grouped ~name:"dht"
      [
        bench_fig4_kernel 8;
        bench_fig4_kernel 32;
        bench_fig6_kernel;
        bench_fig7_kernel;
        bench_fig9_ch_kernel;
        bench_global_kernel;
        bench_creation_op;
        bench_lookup;
        bench_removal;
        bench_snode_runtime;
        bench_snode_runtime_faulty;
        bench_snapshot;
        bench_quorum_put_get;
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name r acc ->
        let ns =
          match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> nan
        in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square r) in
        (name, ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let table = Table.create ~headers:[ "benchmark"; "time/run"; "r^2" ] in
  List.iter
    (fun (name, ns, r2) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.1f ns" ns
      in
      Table.add_row table [ name; pretty; Printf.sprintf "%.4f" r2 ])
    rows;
  Table.print table

(* ------------------------------------------------------------------ *)
(* Part 2: machine-readable perf snapshot of the snode runtime         *)

(* An instrumented runtime workload (48 creations, 512 puts, 512 gets)
   whose telemetry feeds BENCH_runtime.json: host throughput plus the
   simulated traffic and latency quantiles, so the perf trajectory of the
   message-level runtime is tracked as data, not prose. *)
let emit_runtime_json path =
  let reg = Registry.create () in
  let rt =
    Dht_snode.Runtime.create ~pmin:8
      ~approach:(Dht_snode.Runtime.Local { vmin = 4 })
      ~metrics:reg ~snodes:8 ~seed:2004 ()
  in
  let t0 = Sys.time () in
  for i = 1 to 48 do
    Dht_snode.Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8))
      ()
  done;
  Dht_snode.Runtime.run rt;
  for i = 0 to 511 do
    Dht_snode.Runtime.put rt ~key:("bench-" ^ string_of_int i) ~value:"v" ()
  done;
  Dht_snode.Runtime.run rt;
  for i = 0 to 511 do
    Dht_snode.Runtime.get rt ~key:("bench-" ^ string_of_int i) (fun _ -> ())
  done;
  Dht_snode.Runtime.run rt;
  let cpu = Sys.time () -. t0 in
  Dht_snode.Runtime.record_metrics rt reg;
  let ops =
    Dht_snode.Runtime.completed_creations rt
    + Dht_snode.Runtime.completed_puts rt
    + Dht_snode.Runtime.completed_gets rt
  in
  let counter name = Registry.counter_value (Registry.counter reg name) in
  let quantile h p = if Histogram.count h = 0 then 0. else Histogram.quantile h p in
  let lat op p =
    quantile (Registry.histogram reg ~labels:[ ("op", op) ] "runtime.op.latency") p
  in
  let hops = Registry.histogram reg "runtime.route.hops" in
  (* Quorum section: the same put/get volume against a replicated cluster
     (rfactor 3, R = W = 2), so the fan-out cost of quorum coordination is
     tracked alongside the single-copy numbers. Run twice — with the
     default one-quantum linger window (the headline block, what the CI
     perf gate watches), with batching off (the before/after comparison),
     and with causal tracing armed (the observability tax: bigger frames,
     span emission on the hot path) so tracing overhead is tracked as
     data. *)
  let quorum_run ?(causal = false) ~linger () =
    let tbuf = Buffer.create (if causal then 1 lsl 20 else 16) in
    let trace =
      if causal then Dht_telemetry.Trace.(to_buffer Jsonl tbuf)
      else Dht_telemetry.Trace.noop
    in
    let qreg = Registry.create () in
    let qrt =
      Dht_snode.Runtime.create ~pmin:8
        ~approach:(Dht_snode.Runtime.Local { vmin = 4 })
        ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~linger ~metrics:qreg
        ~trace ~causal ~snodes:8 ~seed:2004 ()
    in
    let qt0 = Sys.time () in
    for i = 1 to 48 do
      Dht_snode.Runtime.create_vnode qrt
        ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8))
        ()
    done;
    Dht_snode.Runtime.run qrt;
    for i = 0 to 511 do
      Dht_snode.Runtime.put qrt ~via:(i mod 8)
        ~key:("bench-" ^ string_of_int i) ~value:"v" ()
    done;
    Dht_snode.Runtime.run qrt;
    for i = 0 to 511 do
      Dht_snode.Runtime.get qrt ~via:(i mod 8)
        ~key:("bench-" ^ string_of_int i) (fun _ -> ())
    done;
    Dht_snode.Runtime.run qrt;
    let qcpu = Sys.time () -. qt0 in
    Dht_snode.Runtime.record_metrics qrt qreg;
    let qops =
      Dht_snode.Runtime.completed_creations qrt
      + Dht_snode.Runtime.completed_puts qrt
      + Dht_snode.Runtime.completed_gets qrt
    in
    Dht_telemetry.Trace.close trace;
    (qreg, qops, qcpu, Dht_telemetry.Trace.events trace)
  in
  let default_linger = Dht_snode.Runtime.Network.(gigabit.base_latency) in
  let qreg, qops, qcpu, _ = quorum_run ~linger:default_linger () in
  let ureg, uops, ucpu, _ = quorum_run ~linger:0. () in
  let treg, tops, tcpu, tevents =
    quorum_run ~causal:true ~linger:default_linger ()
  in
  let qcounter name = Registry.counter_value (Registry.counter qreg name) in
  let ucounter name = Registry.counter_value (Registry.counter ureg name) in
  let tcounter name = Registry.counter_value (Registry.counter treg name) in
  let qlat op p =
    quantile
      (Registry.histogram qreg ~labels:[ ("op", op) ] "runtime.quorum.latency")
      p
  in
  let ulat op p =
    quantile
      (Registry.histogram ureg ~labels:[ ("op", op) ] "runtime.quorum.latency")
      p
  in
  (* Overload section: the chaos scenario's degraded run (backpressure,
     retry budget, adaptive RTO, admission control) at 2x capacity with one
     gray-failed snode — goodput under overload is a tracked perf number,
     not just a pass/fail gate. *)
  let ot0 = Sys.time () in
  let ov = Extensions.overload ~seed:2004 () in
  let ocpu = Sys.time () -. ot0 in
  let phase name f =
    match
      List.find_opt
        (fun (p : Extensions.overload_phase) -> p.Extensions.ph_name = name)
        ov.Extensions.ov_phases
    with
    | Some p -> f p
    | None -> nan
  in
  let goodput name = phase name (fun p -> p.Extensions.ph_goodput) in
  (* Skew section: the active balancer's acceptance run — one seeded
     0.99-Zipf stream over a queueing-capable fabric, balancer off then
     on. The off/on Gini and latency quantiles are tracked as data; the
     CI perf gate reports drift on this block without failing on it
     (placement decisions move these numbers legitimately). *)
  let st0 = Sys.time () in
  let sk = Extensions.skew ~seed:2004 () in
  let scpu = Sys.time () -. st0 in
  (* Routing-scaling section: the O(log N) prefix-routing sweep at
     N = 100 / 1k / 10k snodes — windowed hop percentiles, messages/op
     and cache occupancy/bytes under bounded caches with mid-window
     churn. The 10k point dominates the bench's wall time (cluster
     construction is the cost, not the ops), so BENCH_routing_sizes
     trims the sweep for quick local runs; CI and the committed snapshot
     use the full ladder. *)
  let routing_sizes =
    match Sys.getenv_opt "BENCH_ROUTING_SIZES" with
    | None | Some "" -> [ 100; 1000; 10000 ]
    | Some s ->
        String.split_on_char ',' s
        |> List.filter_map (fun x -> int_of_string_opt (String.trim x))
  in
  let rt0 = Sys.time () in
  let routing =
    List.map
      (fun snodes -> Extensions.routing_scaling ~snodes ~seed:2004 ())
      routing_sizes
  in
  let rtcpu = Sys.time () -. rt0 in
  let routing_json =
    String.concat ",\n"
      (List.map
         (fun (r : Extensions.routing_run) ->
           let module R = Dht_snode.Runtime in
           let probes = r.Extensions.rs_cache.R.rcs_hits + r.Extensions.rs_cache.R.rcs_misses in
           let hit_pct =
             if probes = 0 then 0.
             else
               100. *. float_of_int r.Extensions.rs_cache.R.rcs_hits
               /. float_of_int probes
           in
           Printf.sprintf
             "    \"n%d\": {\"snodes\": %d, \"vnodes\": %d, \"level\": %d, \
              \"route_cap\": %d, \"ops\": %d, \"hops_p50\": %.1f, \
              \"hops_p99\": %.1f, \"hops_max\": %d, \"msgs_per_op\": %.3f, \
              \"cache_entries_max\": %d, \"cache_bytes_max\": %d, \
              \"cache_hit_pct\": %.2f, \"evictions\": %d, \
              \"sigma_pct\": %.3f, \"findings\": %d}"
             r.Extensions.rs_snodes r.Extensions.rs_snodes
             r.Extensions.rs_vnodes r.Extensions.rs_level r.Extensions.rs_cap
             r.Extensions.rs_ops r.Extensions.rs_hops_p50
             r.Extensions.rs_hops_p99 r.Extensions.rs_hops_max
             r.Extensions.rs_msgs_per_op r.Extensions.rs_cache_entries_max
             r.Extensions.rs_cache_bytes_max hit_pct
             r.Extensions.rs_cache.R.rcs_evictions r.Extensions.rs_sigma
             (List.length r.Extensions.rs_findings
             + List.length r.Extensions.rs_linear))
         routing)
  in
  (* Anti-entropy section: reconciliation cost of full-digest vs
     Merkle-descent AE over a converged 2-replica store with a small
     planted divergence. Both replicas are seeded with byte-identical
     cells (same origin stamp), a fixed set of keys is overwritten fresh
     on one side, and anti-entropy rounds run to convergence. Full mode
     ([mt_threshold = max_int]) answers every digest mismatch by shipping
     the whole span; Merkle mode ([mt_threshold = 0]) descends the hash
     tree and ships only the differing cells — the tracked numbers are
     wire bytes (control + cells), messages and rounds-to-convergence.
     The 1M point dominates this section's wall time, so BENCH_AE_KEYS
     trims the ladder for quick local runs; CI gates on the 10k point. *)
  let ae_sizes =
    match Sys.getenv_opt "BENCH_AE_KEYS" with
    | None | Some "" -> [ 10_000; 1_000_000 ]
    | Some s ->
        String.split_on_char ',' s
        |> List.filter_map (fun x -> int_of_string_opt (String.trim x))
  in
  let ae_run ~keys ~diverge ~merkle =
    let module R = Dht_snode.Runtime in
    let rt =
      R.create ~pmin:8
        ~approach:(R.Local { vmin = 4 })
        ~rfactor:2 ~read_quorum:1 ~write_quorum:2
        ~mt_threshold:(if merkle then 0 else max_int)
        ~snodes:2 ~seed:2004 ()
    in
    let at0 = Sys.time () in
    for k = 0 to keys - 1 do
      let key = "ae-" ^ string_of_int k in
      let value = "v" ^ string_of_int k in
      R.plant rt ~snode:0 ~origin:0 ~key ~value ~ts:1e-6 ();
      R.plant rt ~snode:1 ~origin:0 ~key ~value ~ts:1e-6 ()
    done;
    for d = 0 to diverge - 1 do
      let k = d * (keys / diverge) in
      R.plant rt ~snode:0 ~origin:0
        ~key:("ae-" ^ string_of_int k)
        ~value:("fresh-" ^ string_of_int k)
        ~ts:2e-6 ()
    done;
    let rounds = ref 0 in
    while R.replica_divergence rt <> [] && !rounds < 8 do
      incr rounds;
      R.anti_entropy rt;
      R.run rt
    done;
    let acpu = Sys.time () -. at0 in
    let ae_tag tag =
      tag = "repl:digest" || tag = "repl:sync-request" || tag = "repl:sync"
      || tag = "ae-request"
      || (String.length tag >= 3 && String.sub tag 0 3 = "mt:")
    in
    let msgs, total, cells =
      List.fold_left
        (fun (m, t, c) (tag, tm, tb) ->
          if not (ae_tag tag) then (m, t, c)
          else (m + tm, t + tb, if tag = "repl:sync" then c + tb else c))
        (0, 0, 0)
        (R.Network.per_tag (R.network rt))
    in
    let stats = R.ae_stats rt in
    ( !rounds,
      R.replica_divergence rt = [],
      msgs,
      total,
      total - cells,
      cells,
      stats,
      acpu )
  in
  let ae_cpu0 = Sys.time () in
  let ae_points =
    List.map
      (fun keys ->
        let diverge = 64 in
        let full = ae_run ~keys ~diverge ~merkle:false in
        let merkle = ae_run ~keys ~diverge ~merkle:true in
        (keys, diverge, full, merkle))
      ae_sizes
  in
  let ae_cpu = Sys.time () -. ae_cpu0 in
  let ae_json =
    let mode (rounds, converged, msgs, total, control, cells, stats, cpu) =
      let module R = Dht_snode.Runtime in
      Printf.sprintf
        "{\"rounds\": %d, \"converged\": %b, \"messages\": %d, \
         \"bytes_total\": %d, \"bytes_control\": %d, \"bytes_cells\": %d, \
         \"digests\": %d, \"tree_roots\": %d, \"tree_frames\": %d, \
         \"divergent_leaves\": %d, \"cells_shipped\": %d, \
         \"cpu_seconds\": %.6f}"
        rounds converged msgs total control cells stats.R.ae_digests
        stats.R.ae_roots stats.R.ae_frames stats.R.ae_leaves
        stats.R.ae_keys_sent cpu
    in
    String.concat ",\n"
      (List.map
         (fun (keys, diverge, full, merkle) ->
           let total (_, _, _, t, _, _, _, _) = float_of_int t in
           let reduction =
             if total merkle > 0. then total full /. total merkle else 0.
           in
           Printf.sprintf
             "    \"n%d\": {\"keys\": %d, \"divergent\": %d,\n\
             \      \"full\": %s,\n\
             \      \"merkle\": %s,\n\
             \      \"byte_reduction\": %.2f}"
             keys keys diverge (mode full) (mode merkle) reduction)
         ae_points)
  in
  let skrun (x : Extensions.skew_run) =
    Printf.sprintf
      "{\"gini\": %.6f, \"sigma_pct\": %.3f, \"p50\": %.9f, \"p99\": %.9f, \
       \"completed\": %d, \"acked\": %d, \"lost\": %d, \"transfers\": %d, \
       \"findings\": %d}"
      x.Extensions.sk_gini x.Extensions.sk_sigma x.Extensions.sk_p50
      x.Extensions.sk_p99 x.Extensions.sk_completed x.Extensions.sk_acked
      x.Extensions.sk_lost x.Extensions.sk_lb.Dht_snode.Runtime.lbs_transfers
      (List.length x.Extensions.sk_findings
      + List.length x.Extensions.sk_linear)
  in
  let improvement off on = if off > 0. then 100. *. (off -. on) /. off else 0. in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"snode-runtime\",\n\
    \  \"seed\": 2004,\n\
    \  \"snodes\": 8,\n\
    \  \"operations\": %d,\n\
    \  \"cpu_seconds\": %.6f,\n\
    \  \"ops_per_second\": %.1f,\n\
    \  \"messages\": %d,\n\
    \  \"bytes\": %d,\n\
    \  \"put_latency_p50\": %.9f,\n\
    \  \"put_latency_p99\": %.9f,\n\
    \  \"get_latency_p50\": %.9f,\n\
    \  \"get_latency_p99\": %.9f,\n\
    \  \"route_hops_p50\": %.2f,\n\
    \  \"route_hops_p99\": %.2f,\n\
    \  \"quorum\": {\n\
    \    \"rfactor\": 3,\n\
    \    \"read_quorum\": 2,\n\
    \    \"write_quorum\": 2,\n\
    \    \"linger\": %.9f,\n\
    \    \"operations\": %d,\n\
    \    \"cpu_seconds\": %.6f,\n\
    \    \"ops_per_second\": %.1f,\n\
    \    \"messages\": %d,\n\
    \    \"bytes\": %d,\n\
    \    \"batches\": %d,\n\
    \    \"batch_parts\": %d,\n\
    \    \"batch_saved_bytes\": %d,\n\
    \    \"put_latency_p50\": %.9f,\n\
    \    \"put_latency_p99\": %.9f,\n\
    \    \"get_latency_p50\": %.9f,\n\
    \    \"get_latency_p99\": %.9f\n\
    \  },\n\
    \  \"quorum_unbatched\": {\n\
    \    \"rfactor\": 3,\n\
    \    \"read_quorum\": 2,\n\
    \    \"write_quorum\": 2,\n\
    \    \"linger\": 0,\n\
    \    \"operations\": %d,\n\
    \    \"cpu_seconds\": %.6f,\n\
    \    \"ops_per_second\": %.1f,\n\
    \    \"messages\": %d,\n\
    \    \"bytes\": %d,\n\
    \    \"put_latency_p50\": %.9f,\n\
    \    \"put_latency_p99\": %.9f,\n\
    \    \"get_latency_p50\": %.9f,\n\
    \    \"get_latency_p99\": %.9f\n\
    \  },\n\
    \  \"quorum_traced\": {\n\
    \    \"rfactor\": 3,\n\
    \    \"read_quorum\": 2,\n\
    \    \"write_quorum\": 2,\n\
    \    \"causal\": true,\n\
    \    \"operations\": %d,\n\
    \    \"cpu_seconds\": %.6f,\n\
    \    \"ops_per_second\": %.1f,\n\
    \    \"messages\": %d,\n\
    \    \"bytes\": %d,\n\
    \    \"trace_events\": %d,\n\
    \    \"bytes_overhead_pct\": %.2f,\n\
    \    \"host_overhead_pct\": %.2f\n\
    \  },\n\
    \  \"quorum_overload\": {\n\
    \    \"rate\": %.1f,\n\
    \    \"burst_rate\": %.1f,\n\
    \    \"slow_snode\": %d,\n\
    \    \"slow_factor\": %.1f,\n\
    \    \"slo_seconds\": %.4f,\n\
    \    \"cpu_seconds\": %.6f,\n\
    \    \"acked\": %d,\n\
    \    \"lost_acked\": %d,\n\
    \    \"busy\": %d,\n\
    \    \"pending\": %d,\n\
    \    \"audit_ok\": %b,\n\
    \    \"goodput_pre\": %.1f,\n\
    \    \"goodput_burst\": %.1f,\n\
    \    \"goodput_post\": %.1f,\n\
    \    \"recovery_ratio\": %.4f,\n\
    \    \"retransmits_per_op\": %.4f,\n\
    \    \"retransmits_per_op_fixed_rto\": %.4f,\n\
    \    \"sheds\": %d,\n\
    \    \"probes\": %d,\n\
    \    \"backpressured\": %d,\n\
    \    \"ingress_overflows\": %d\n\
    \  },\n\
    \  \"routing_scaling\": {\n\
    \    \"cpu_seconds\": %.6f,\n\
    %s\n\
    \  },\n\
    \  \"anti_entropy\": {\n\
    \    \"replicas\": 2,\n\
    \    \"cpu_seconds\": %.6f,\n\
    %s\n\
    \  },\n\
    \  \"quorum_skewed\": {\n\
    \    \"zipf\": %.2f,\n\
    \    \"keys\": %d,\n\
    \    \"rate\": %.1f,\n\
    \    \"duration\": %.2f,\n\
    \    \"cpu_seconds\": %.6f,\n\
    \    \"off\": %s,\n\
    \    \"on\": %s,\n\
    \    \"gini_improvement_pct\": %.2f,\n\
    \    \"p99_improvement_pct\": %.2f\n\
    \  }\n\
     }\n"
    ops cpu
    (if cpu > 0. then float_of_int ops /. cpu else 0.)
    (counter "net.messages") (counter "net.bytes") (lat "put" 0.5)
    (lat "put" 0.99) (lat "get" 0.5) (lat "get" 0.99) (quantile hops 0.5)
    (quantile hops 0.99) default_linger qops qcpu
    (if qcpu > 0. then float_of_int qops /. qcpu else 0.)
    (qcounter "net.messages") (qcounter "net.bytes") (qcounter "net.batches")
    (qcounter "net.batch.parts")
    (qcounter "net.batch.saved_bytes")
    (qlat "put" 0.5) (qlat "put" 0.99) (qlat "get" 0.5) (qlat "get" 0.99)
    uops ucpu
    (if ucpu > 0. then float_of_int uops /. ucpu else 0.)
    (ucounter "net.messages") (ucounter "net.bytes") (ulat "put" 0.5)
    (ulat "put" 0.99) (ulat "get" 0.5) (ulat "get" 0.99) tops tcpu
    (if tcpu > 0. then float_of_int tops /. tcpu else 0.)
    (tcounter "net.messages") (tcounter "net.bytes") tevents
    (let qb = float_of_int (qcounter "net.bytes") in
     if qb > 0. then
       100. *. (float_of_int (tcounter "net.bytes") -. qb) /. qb
     else 0.)
    (let qrate = if qcpu > 0. then float_of_int qops /. qcpu else 0. in
     let trate = if tcpu > 0. then float_of_int tops /. tcpu else 0. in
     if qrate > 0. then 100. *. (1. -. (trate /. qrate)) else 0.)
    ov.Extensions.ov_rate ov.Extensions.ov_burst_rate
    ov.Extensions.ov_slow_snode ov.Extensions.ov_slow_factor
    ov.Extensions.ov_slo ocpu ov.Extensions.ov_acked
    ov.Extensions.ov_lost_acked ov.Extensions.ov_busy_total
    ov.Extensions.ov_pending ov.Extensions.ov_audit_ok (goodput "pre")
    (goodput "burst") (goodput "post") ov.Extensions.ov_recovery_ratio
    ov.Extensions.ov_retx_per_op ov.Extensions.ov_fixed_retx_per_op
    ov.Extensions.ov_overload.Dht_snode.Runtime.sheds
    ov.Extensions.ov_overload.Dht_snode.Runtime.probes
    ov.Extensions.ov_overload.Dht_snode.Runtime.backpressured
    ov.Extensions.ov_overload.Dht_snode.Runtime.ingress_overflows
    rtcpu routing_json ae_cpu ae_json
    sk.Extensions.sk_zipf sk.Extensions.sk_keys sk.Extensions.sk_rate
    sk.Extensions.sk_duration scpu
    (skrun sk.Extensions.sk_off)
    (skrun sk.Extensions.sk_on)
    (improvement sk.Extensions.sk_off.Extensions.sk_gini
       sk.Extensions.sk_on.Extensions.sk_gini)
    (improvement sk.Extensions.sk_off.Extensions.sk_p99
       sk.Extensions.sk_on.Extensions.sk_p99);
  close_out oc;
  Printf.printf
    "\nwrote %s (%d ops single-copy at %.0f ops/s; %d ops quorum at %.0f \
     ops/s batched, %.0f ops/s unbatched, %.0f ops/s causally traced \
     (%d span events) on the host; overload goodput %.0f -> %.0f -> %.0f \
     acked-in-SLO/s; skew balancer gini %.3f -> %.3f, p99 %.1f -> %.1f ms; \
     routing p99 hops %s; anti-entropy byte reduction %s)\n"
    path ops
    (if cpu > 0. then float_of_int ops /. cpu else 0.)
    qops
    (if qcpu > 0. then float_of_int qops /. qcpu else 0.)
    (if ucpu > 0. then float_of_int uops /. ucpu else 0.)
    (if tcpu > 0. then float_of_int tops /. tcpu else 0.)
    tevents (goodput "pre") (goodput "burst") (goodput "post")
    sk.Extensions.sk_off.Extensions.sk_gini
    sk.Extensions.sk_on.Extensions.sk_gini
    (1e3 *. sk.Extensions.sk_off.Extensions.sk_p99)
    (1e3 *. sk.Extensions.sk_on.Extensions.sk_p99)
    (String.concat ", "
       (List.map
          (fun (r : Extensions.routing_run) ->
            Printf.sprintf "N=%d: %.0f" r.Extensions.rs_snodes
              r.Extensions.rs_hops_p99)
          routing))
    (String.concat ", "
       (List.map
          (fun (keys, _, (_, _, _, ft, _, _, _, _), (_, _, _, mt, _, _, _, _)) ->
            Printf.sprintf "%dk keys: %.1fx" (keys / 1000)
              (if mt > 0 then float_of_int ft /. float_of_int mt else 0.))
          ae_points))

(* ------------------------------------------------------------------ *)
(* Part 3: figure regeneration (reduced runs; dht_sim for full scale)  *)

let checkpoints = [ 128; 256; 512; 768; 1024 ]

let print_curves ~title curves =
  Printf.printf "\n== %s ==\n" title;
  let table =
    Table.create
      ~headers:("V" :: List.map (fun (c : Curve.t) -> c.Curve.label) curves)
  in
  List.iter
    (fun v ->
      let row =
        string_of_int v
        :: List.map
             (fun (c : Curve.t) ->
               if v <= Array.length c.Curve.ys then
                 Printf.sprintf "%.3f" c.Curve.ys.(v - 1)
               else "-")
             curves
      in
      Table.add_row table row)
    checkpoints;
  Table.print table

let runs = 10
let seed = 2004

let () =
  Dht_core.Log.setup_from_env ();
  run_benchmarks ();
  emit_runtime_json "BENCH_runtime.json";

  let fig4 = Figures.fig4 ~runs ~seed () in
  print_curves
    ~title:"Figure 4: sigma(Qv) %, Pmin = Vmin (paper: ~22.5/15/10/7/5 plateaus)"
    fig4;

  let thetas = Figures.fig5 ~runs ~seed () in
  Printf.printf "\n== Figure 5: theta(Vmin), alpha = beta = 0.5 (paper: min at 32) ==\n";
  List.iter (fun (v, t) -> Printf.printf "  Vmin=%-4d theta=%.4f\n" v t) thetas;
  Printf.printf "  theta minimizes at Vmin = %d\n" (Figures.argmin_theta thetas);

  print_curves
    ~title:"Figure 6: sigma(Qv) %, Pmin = 32 (paper: Vmin=512 matches global)"
    (Figures.fig6 ~runs ~seed ());

  let d = Figures.fig7_fig8 ~runs ~seed () in
  print_curves ~title:"Figure 7: number of groups (paper: Greal overshoots Gideal)"
    [ d.Figures.greal; d.Figures.gideal ];
  print_curves ~title:"Figure 8: sigma(Qg) % between groups (paper: spiky, 0-40%)"
    [ d.Figures.sigma_qg ];

  print_curves
    ~title:
      "Figure 9: sigma(Qn) % vs Consistent Hashing (paper: local < CH when Vmin >= 64)"
    (Figures.fig9 ~runs ~seed ());

  (* §4.1.1 claims *)
  Printf.printf "\n== Claim: zone 1 (V <= Vmax) local = global ==\n";
  let local, global = Figures.zone1 ~runs:3 ~seed () in
  let max_diff = ref 0. in
  Array.iteri
    (fun i y -> max_diff := Float.max !max_diff (abs_float (y -. global.Curve.ys.(i))))
    local.Curve.ys;
  Printf.printf "  max |local - global| over V=1..64: %.6f %%\n" !max_diff;

  Printf.printf "\n== Claim: doubling (Pmin,Vmin) shaves ~30%% off the plateau ==\n";
  List.iter
    (fun (label, final, ratio) ->
      Printf.printf "  %-24s final=%6.3f%%  ratio=%.3f\n" label final ratio)
    (Figures.plateau_ratios fig4);

  Printf.printf "\n== Claim: stable out to 8192 vnodes ==\n";
  let curve, slope = Figures.stability ~runs:2 ~vnodes:4096 ~seed () in
  Printf.printf
    "  sigma at V=1024: %.3f%%, at V=4096: %.3f%%, tail slope %.4f %%/1000v\n"
    (Curve.at_x curve 1024.) (Curve.last curve) slope;

  (* Extension experiments *)
  Printf.printf
    "\n== Extension: creation protocol under load (512 creations @20000/s) ==\n";
  List.iter
    (fun (r : Extensions.parallel_row) ->
      Printf.printf
        "  %-16s makespan %6.3fs  mean-lat %7.2fms  msgs %7d  audit %s\n"
        r.label r.par_makespan
        (1000. *. r.par_mean_latency)
        r.par_messages
        (if r.par_audit_ok then "ok" else "FAILED"))
    (Extensions.parallel ~seed ());

  Printf.printf "\n== Extension: heterogeneous enrollment ==\n";
  let h = Extensions.hetero ~seed () in
  Printf.printf "  max relative quota error %.3f, rms %.3f\n"
    h.Extensions.max_rel_err h.Extensions.rms_rel_err;

  Printf.printf "\n== Extension: data plane (100k keys, 64 -> 128 vnodes) ==\n";
  let k = Extensions.kvload ~seed () in
  Printf.printf
    "  load sigma %.2f%% -> %.2f%% (quota sigma %.2f%%), %d changed owner, \
     lost %d, findings %d\n"
    k.Extensions.load_sigma_before k.Extensions.load_sigma_after
    k.Extensions.quota_sigma_after k.Extensions.migrations k.Extensions.lost
    (List.length k.Extensions.findings);

  Printf.printf "\n== Extension: churn (joins + leaves) ==\n";
  let c = Extensions.churn ~seed () in
  Printf.printf
    "  %d joins, %d leaves (%d blocked by the L2 floor), %d vnodes left;\n"
    c.Extensions.joins c.Extensions.leaves c.Extensions.blocked_leaves
    c.Extensions.final_vnodes;
  Printf.printf "  sigma(Qv) max %.2f%%, keys lost %d, invariant findings %d\n"
    (Array.fold_left Float.max 0. c.Extensions.sigma_qv_curve)
    c.Extensions.churn_keys_lost c.Extensions.audit_failures;

  Printf.printf "\n== Ablation: victim selection (section 3.6) ==\n";
  let a = Extensions.ablation_selection ~runs:10 ~seed () in
  Printf.printf
    "  sigma(Qv): quota lookup %.2f%% vs uniform group %.2f%%\n"
    a.Extensions.quota_sigma_qv a.Extensions.uniform_sigma_qv;

  Printf.printf "\n== Extension: heterogeneous quota tracking vs weighted CH ==\n";
  let hc = Extensions.hetero_compare ~seed () in
  Printf.printf "  rms |quota/share - 1|: local %.3f vs weighted CH %.3f\n"
    hc.Extensions.local_rms_err hc.Extensions.ch_rms_err;

  Printf.printf "\n== Extension: distributed snode runtime ==\n";
  let d = Extensions.distributed ~seed () in
  Printf.printf
    "  sigma(Qv) %.2f%% (oracle %.2f%%), %d msgs, %d retries, keys wrong %d, audit %s\n"
    d.Extensions.dist_sigma_qv d.Extensions.oracle_sigma_qv
    d.Extensions.dist_messages d.Extensions.dist_retries
    d.Extensions.dist_keys_wrong
    (if d.Extensions.dist_audit_ok then "ok" else "FAILED");

  Printf.printf "\n== Extension: multi-DHT coexistence with external load ==\n";
  let cx = Extensions.coexist ~seed () in
  List.iteri
    (fun i name ->
      Printf.printf "  %s: rms err %.3f (idle) -> %.3f (loaded) -> %.3f (retargeted)\n"
        name
        (List.nth cx.Extensions.error_before i)
        (List.nth cx.Extensions.error_after_load i)
        (List.nth cx.Extensions.error_after_retarget i))
    cx.Extensions.dht_names
