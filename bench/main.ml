(* BENCH_runtime.json: the deterministic snapshot of the snode runtime.

   Four blocks, each a seeded virtual-time run whose numbers (messages,
   bytes, hops, rounds, goodput, Gini) are identical on every host; only
   the [cpu_seconds] fields measure the host:
   - [quorum_overload]: the chaos scenario's degraded run at 2x capacity
     with one gray-failed snode;
   - [routing_scaling]: the O(log N) prefix-routing sweep;
   - [anti_entropy]: flat leaf-exchange vs Merkle-descent reconciliation cost;
   - [quorum_skewed]: the active balancer's off/on acceptance run.

   Host throughput lives in perfbench/ (steady medians, per-layer kernels),
   and the paper's figures and the extension tables in `dht_sim` (`dht_sim
   all`, or one subcommand per experiment). *)

module Extensions = Dht_experiments.Extensions
module R = Dht_snode.Runtime

let seed = 2004

let timed f =
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

(* A comma-separated size ladder from the environment, so quick runs (and
   CI) can trim the expensive points; the committed snapshot uses the
   full ladder. *)
let sizes_from_env name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun x -> int_of_string_opt (String.trim x))

(* ------------------------------------------------------------------ *)
(* Overload: backpressure, retry budget, adaptive RTO and admission     *)
(* control; goodput under overload is a tracked number.                 *)

let overload_json () =
  let ov, cpu = timed (fun () -> Extensions.overload ~seed ()) in
  let open Extensions in
  let goodput name =
    match List.find_opt (fun p -> p.ph_name = name) ov.ov_phases with
    | Some p -> p.ph_goodput
    | None -> nan
  in
  let o = ov.ov_overload in
  Printf.sprintf
    "{\n\
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
    \  }"
    ov.ov_rate ov.ov_burst_rate ov.ov_slow_snode ov.ov_slow_factor ov.ov_slo
    cpu ov.ov_acked ov.ov_lost_acked ov.ov_busy_total ov.ov_pending
    ov.ov_audit_ok (goodput "pre") (goodput "burst") (goodput "post")
    ov.ov_recovery_ratio ov.ov_retx_per_op ov.ov_fixed_retx_per_op
    o.R.sheds o.R.probes o.R.backpressured o.R.ingress_overflows

(* ------------------------------------------------------------------ *)
(* Routing scaling: windowed hop percentiles, messages/op and cache     *)
(* occupancy under bounded caches with mid-window churn. The 10k point  *)
(* dominates the wall time (cluster construction, not the ops), so      *)
(* BENCH_ROUTING_SIZES trims the sweep.                                 *)

let routing_json () =
  let sizes = sizes_from_env "BENCH_ROUTING_SIZES" [ 100; 1000; 10000 ] in
  let runs, cpu =
    timed (fun () ->
        List.map
          (fun snodes -> Extensions.routing_scaling ~snodes ~seed ())
          sizes)
  in
  let open Extensions in
  let run r =
    Printf.sprintf
      "    \"n%d\": {\"snodes\": %d, \"vnodes\": %d, \"level\": %d, \
       \"route_cap\": %d, \"ops\": %d, \"hops_p50\": %.1f, \
       \"hops_p99\": %.1f, \"hops_max\": %d, \"msgs_per_op\": %.3f, \
       \"cache_entries_max\": %d, \"cache_bytes_max\": %d, \
       \"cache_hit_pct\": %.2f, \"sigma_pct\": %.3f, \"findings\": %d}"
      r.rs_snodes r.rs_snodes r.rs_vnodes r.rs_level r.rs_cap r.rs_ops
      r.rs_hops_p50 r.rs_hops_p99 r.rs_hops_max r.rs_msgs_per_op
      r.rs_cache_entries_max r.rs_cache_bytes_max (routing_hit_pct r) r.rs_sigma
      (List.length r.rs_findings + List.length r.rs_linear)
  in
  Printf.sprintf "{\n    \"cpu_seconds\": %.6f,\n%s\n  }" cpu
    (String.concat ",\n" (List.map run runs))

(* ------------------------------------------------------------------ *)
(* Anti-entropy: reconciliation cost of a flat leaf exchange vs a       *)
(* Merkle descent over a converged 2-replica store with a small planted *)
(* divergence.                                                          *)

type ae_mode = {
  rounds : int;
  converged : bool;
  messages : int;
  bytes_total : int;
  bytes_cells : int;
  stats : R.ae_stats;
  cpu : float;
}

(* Both replicas are seeded with byte-identical cells (same origin stamp),
   [diverge] evenly spaced keys are overwritten fresh on one side, and
   anti-entropy rounds run to convergence. Flat mode
   ([mt_threshold = max_int]) answers a root-frame mismatch with the key
   list of the whole span; Merkle mode ([mt_threshold = 0]) descends the
   hash tree to the divergent leaves first. Both ship only the differing
   cells. *)
let ae_run ~keys ~diverge ~merkle =
  let rt =
    R.create ~pmin:8
      ~approach:(R.Local { vmin = 4 })
      ~rfactor:2 ~read_quorum:1 ~write_quorum:2
      ~mt_threshold:(if merkle then 0 else max_int)
      ~snodes:2 ~seed ()
  in
  let rounds, cpu =
    timed (fun () ->
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
        !rounds)
  in
  let ae_tag tag =
    tag = "repl:sync" || tag = "ae-request"
    || (String.length tag >= 3 && String.sub tag 0 3 = "mt:")
  in
  let messages, bytes_total, bytes_cells =
    List.fold_left
      (fun (m, t, c) (tag, tm, tb) ->
        if not (ae_tag tag) then (m, t, c)
        else (m + tm, t + tb, if tag = "repl:sync" then c + tb else c))
      (0, 0, 0)
      (R.Network.per_tag (R.network rt))
  in
  {
    rounds;
    converged = R.replica_divergence rt = [];
    messages;
    bytes_total;
    bytes_cells;
    stats = R.ae_stats rt;
    cpu;
  }

let mode_json m =
  Printf.sprintf
    "{\"rounds\": %d, \"converged\": %b, \"messages\": %d, \
     \"bytes_total\": %d, \"bytes_control\": %d, \"bytes_cells\": %d, \
     \"tree_roots\": %d, \"tree_frames\": %d, \
     \"divergent_leaves\": %d, \"cells_shipped\": %d, \
     \"cpu_seconds\": %.6f}"
    m.rounds m.converged m.messages m.bytes_total
    (m.bytes_total - m.bytes_cells)
    m.bytes_cells m.stats.R.ae_roots m.stats.R.ae_frames
    m.stats.R.ae_leaves m.stats.R.ae_keys_sent m.cpu

(* The 1M point dominates this block's wall time, so BENCH_AE_KEYS trims
   the ladder; CI gates on the 10k point. *)
let anti_entropy_json () =
  let diverge = 64 in
  let points, cpu =
    timed (fun () ->
        List.map
          (fun keys ->
            let flat = ae_run ~keys ~diverge ~merkle:false in
            (keys, flat, ae_run ~keys ~diverge ~merkle:true))
          (sizes_from_env "BENCH_AE_KEYS" [ 10_000; 1_000_000 ]))
  in
  let point (keys, flat, merkle) =
    Printf.sprintf
      "    \"n%d\": {\"keys\": %d, \"divergent\": %d,\n\
      \      \"flat\": %s,\n\
      \      \"merkle\": %s,\n\
      \      \"byte_reduction\": %.2f}"
      keys keys diverge (mode_json flat) (mode_json merkle)
      (if merkle.bytes_total > 0 then
         float_of_int flat.bytes_total /. float_of_int merkle.bytes_total
       else 0.)
  in
  Printf.sprintf "{\n    \"replicas\": 2,\n    \"cpu_seconds\": %.6f,\n%s\n  }"
    cpu
    (String.concat ",\n" (List.map point points))

(* ------------------------------------------------------------------ *)
(* Skew: one seeded 0.99-Zipf stream over a queueing-capable fabric,    *)
(* balancer off then on.                                                *)

let skew_json () =
  let sk, cpu = timed (fun () -> Extensions.skew ~seed ()) in
  let open Extensions in
  let run x =
    Printf.sprintf
      "{\"gini\": %.6f, \"sigma_pct\": %.3f, \"p50\": %.9f, \"p99\": %.9f, \
       \"completed\": %d, \"acked\": %d, \"lost\": %d, \"transfers\": %d, \
       \"findings\": %d}"
      x.sk_gini x.sk_sigma x.sk_p50 x.sk_p99 x.sk_completed x.sk_acked
      x.sk_lost x.sk_lb.R.lbs_transfers
      (List.length x.sk_findings + List.length x.sk_linear)
  in
  let improvement off on = if off > 0. then 100. *. (off -. on) /. off else 0. in
  Printf.sprintf
    "{\n\
    \    \"zipf\": %.2f,\n\
    \    \"keys\": %d,\n\
    \    \"rate\": %.1f,\n\
    \    \"duration\": %.2f,\n\
    \    \"cpu_seconds\": %.6f,\n\
    \    \"off\": %s,\n\
    \    \"on\": %s,\n\
    \    \"gini_improvement_pct\": %.2f,\n\
    \    \"p99_improvement_pct\": %.2f\n\
    \  }"
    sk.sk_zipf sk.sk_keys sk.sk_rate sk.sk_duration cpu (run sk.sk_off)
    (run sk.sk_on)
    (improvement sk.sk_off.sk_gini sk.sk_on.sk_gini)
    (improvement sk.sk_off.sk_p99 sk.sk_on.sk_p99)

let () =
  Dht_core.Log.setup_from_env ();
  let blocks =
    List.map
      (fun (name, json) -> Printf.sprintf "  %S: %s" name (json ()))
      [
        ("quorum_overload", overload_json);
        ("routing_scaling", routing_json);
        ("anti_entropy", anti_entropy_json);
        ("quorum_skewed", skew_json);
      ]
  in
  let oc = open_out "BENCH_runtime.json" in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"snode-runtime\",\n  \"seed\": %d,\n%s\n}\n" seed
    (String.concat ",\n" blocks);
  close_out oc;
  print_endline "wrote BENCH_runtime.json"
