(* Tests for Dht_experiments: the per-figure drivers (small scales). *)

open Dht_core
module Curve = Dht_experiments.Curve
module Runs = Dht_experiments.Runs
module Sims = Dht_experiments.Sims
module Figures = Dht_experiments.Figures
module Extensions = Dht_experiments.Extensions
module Rng = Dht_prng.Rng

let check = Alcotest.check
let vid i = Vnode_id.make ~snode:i ~vnode:0

(* --- Curve --- *)

let test_curve_basics () =
  let c = Curve.of_ys ~label:"c" [| 1.; 2.; 3. |] in
  check (Alcotest.float 0.) "last" 3. (Curve.last c);
  check (Alcotest.float 0.) "x starts at 1" 1. c.Curve.xs.(0);
  check (Alcotest.float 0.) "at_x" 2. (Curve.at_x c 2.);
  Alcotest.check_raises "beyond range" Not_found (fun () ->
      ignore (Curve.at_x c 10.));
  Alcotest.check_raises "empty" (Invalid_argument "Curve.make: empty or mismatched arrays")
    (fun () -> ignore (Curve.make ~label:"x" ~xs:[||] ~ys:[||]))

(* --- Runs --- *)

let test_mean_curve_averages () =
  (* Each run returns a constant curve derived from its own rng; the mean
     must be the average of those constants. *)
  let values = ref [] in
  let ys =
    Runs.mean_curve ~runs:8 ~seed:3 (fun rng ->
        let v = Rng.float rng in
        values := v :: !values;
        Array.make 4 v)
  in
  let expected = List.fold_left ( +. ) 0. !values /. 8. in
  Array.iter (fun y -> check (Alcotest.float 1e-12) "mean" expected y) ys;
  check Alcotest.int "curve length" 4 (Array.length ys)

let test_mean_curve_distinct_streams () =
  let values = ref [] in
  ignore
    (Runs.mean_curve ~runs:6 ~seed:3 (fun rng ->
         values := Rng.float rng :: !values;
         [| 0. |]));
  let distinct = List.sort_uniq compare !values in
  check Alcotest.int "six distinct run streams" 6 (List.length distinct)

let test_mean_curve_reproducible () =
  let go () = Runs.mean_curve ~runs:3 ~seed:5 (fun rng -> [| Rng.float rng |]) in
  check Alcotest.(array (float 0.)) "same seed" (go ()) (go ())

let test_runs_validation () =
  Alcotest.check_raises "zero runs" (Invalid_argument "Runs: runs must be positive")
    (fun () -> ignore (Runs.mean_curve ~runs:0 ~seed:1 (fun _ -> [| 1. |])))

(* --- Sims --- *)

let test_local_curve_shape () =
  let ys =
    Sims.local_curve ~pmin:8 ~vmin:8 ~vnodes:32
      ~sample:Dht_core.Local_dht.sigma_qv (Rng.of_int 1)
  in
  check Alcotest.int "one sample per creation" 32 (Array.length ys);
  check (Alcotest.float 0.) "sigma starts at 0" 0. ys.(0)

let test_global_curve_deterministic () =
  let a = Sims.global_curve ~pmin:8 ~vnodes:32 ~sample:Dht_core.Global_dht.sigma_qv () in
  let b = Sims.global_curve ~pmin:8 ~vnodes:32 ~sample:Dht_core.Global_dht.sigma_qv () in
  check Alcotest.(array (float 0.)) "identical" a b

let test_single_group_run_equals_global () =
  (* With one group (V <= Vmax) the local simulation is exactly the global
     one, whatever the seed — the zone-1 phenomenon of §4.1.1. *)
  let local =
    Sims.local_curve ~pmin:16 ~vmin:16 ~vnodes:32
      ~sample:Dht_core.Local_dht.sigma_qv (Rng.of_int 12345)
  in
  let global =
    Sims.global_curve ~pmin:16 ~vnodes:32 ~sample:Dht_core.Global_dht.sigma_qv ()
  in
  Array.iteri
    (fun i y -> check (Alcotest.float 1e-9) (Printf.sprintf "V=%d" (i + 1)) global.(i) y)
    local

let test_ch_curve () =
  let ys = Sims.ch_curve ~points_per_node:8 ~nodes:64 (Rng.of_int 3) in
  check Alcotest.int "length" 64 (Array.length ys);
  check (Alcotest.float 0.) "single node balanced" 0. ys.(0);
  check Alcotest.bool "imbalance appears" true (ys.(63) > 0.)

(* --- Figures (reduced scale) --- *)

let test_fig4_small () =
  let curves = Figures.fig4 ~runs:3 ~vnodes:64 ~pairs:[ 8; 16 ] ~seed:1 () in
  check Alcotest.int "two curves" 2 (List.length curves);
  List.iter
    (fun (c : Curve.t) -> check Alcotest.int "length" 64 (Array.length c.Curve.ys))
    curves;
  check Alcotest.string "label" "(Pmin,Vmin)=(8,8)" (List.hd curves).Curve.label

let test_fig4_ordering () =
  (* Larger Pmin=Vmin must balance better at the end (figure 4's story). *)
  let curves = Figures.fig4 ~runs:5 ~vnodes:256 ~pairs:[ 8; 32 ] ~seed:2 () in
  match curves with
  | [ small; large ] ->
      check Alcotest.bool
        (Printf.sprintf "%.2f > %.2f" (Curve.last small) (Curve.last large))
        true
        (Curve.last small > Curve.last large)
  | _ -> Alcotest.fail "expected two curves"

let test_fig5_theta () =
  let thetas = Figures.fig5 ~runs:2 ~vnodes:128 ~vmins:[ 8; 16; 32 ] ~seed:1 () in
  check Alcotest.int "three points" 3 (List.length thetas);
  List.iter
    (fun (_, t) -> check Alcotest.bool "theta in (0, 1]" true (t > 0. && t <= 1.))
    thetas;
  (* The largest Vmin contributes alpha = 0.5 exactly from the first term. *)
  let _, t32 = List.nth thetas 2 in
  check Alcotest.bool "largest vmin >= 0.5" true (t32 >= 0.5)

let test_argmin_theta () =
  check Alcotest.int "argmin" 32
    (Figures.argmin_theta [ (8, 0.6); (16, 0.5); (32, 0.3); (64, 0.4) ]);
  Alcotest.check_raises "empty" (Invalid_argument "Figures.argmin_theta: empty")
    (fun () -> ignore (Figures.argmin_theta []))

let test_fig6_includes_global_limit () =
  (* Vmin = vnodes/2 never splits group 0, reproducing the global curve. *)
  let curves = Figures.fig6 ~runs:2 ~vnodes:64 ~pmin:8 ~vmins:[ 4; 32 ] ~seed:3 () in
  match curves with
  | [ small; global_like ] ->
      let global =
        Sims.global_curve ~pmin:8 ~vnodes:64 ~sample:Dht_core.Global_dht.sigma_qv ()
      in
      check (Alcotest.float 1e-9) "matches global at the end" global.(63)
        (Curve.last global_like);
      check Alcotest.bool "small vmin degrades balance" true
        (Curve.last small >= Curve.last global_like)
  | _ -> Alcotest.fail "expected two curves"

let test_fig7_fig8 () =
  let d = Figures.fig7_fig8 ~runs:3 ~vnodes:128 ~pmin:8 ~vmin:8 ~seed:4 () in
  check (Alcotest.float 0.) "greal starts at 1" 1. d.Figures.greal.Curve.ys.(0);
  check (Alcotest.float 0.) "gideal starts at 1" 1. d.Figures.gideal.Curve.ys.(0);
  check (Alcotest.float 0.) "gideal at 128 with vmax 16" 8.
    (Curve.at_x d.Figures.gideal 128.);
  check Alcotest.bool "greal grows" true (Curve.last d.Figures.greal > 4.);
  check Alcotest.int "sigma_qg same length" 128
    (Array.length d.Figures.sigma_qg.Curve.ys)

let test_fig9_small () =
  let curves =
    Figures.fig9 ~runs:2 ~nodes:64 ~pmin:8 ~vmins:[ 8 ] ~ch_points:[ 8 ] ~seed:5 ()
  in
  check Alcotest.int "two curves" 2 (List.length curves);
  check Alcotest.string "CH first" "CH, 8 partitions/node" (List.hd curves).Curve.label

let test_zone1_driver () =
  let local, global = Figures.zone1 ~runs:2 ~pmin_vmin:8 ~seed:6 () in
  check Alcotest.int "length vmax" 16 (Array.length local.Curve.ys);
  Array.iteri
    (fun i y -> check (Alcotest.float 1e-9) (Printf.sprintf "V=%d" (i + 1)) global.Curve.ys.(i) y)
    local.Curve.ys

let test_plateau_ratios () =
  let c1 = Curve.of_ys ~label:"a" [| 0.; 10. |] in
  let c2 = Curve.of_ys ~label:"b" [| 0.; 7. |] in
  match Figures.plateau_ratios [ c1; c2 ] with
  | [ ("a", f1, r1); ("b", f2, r2) ] ->
      check (Alcotest.float 1e-12) "first final" 10. f1;
      check (Alcotest.float 1e-12) "first ratio" 1. r1;
      check (Alcotest.float 1e-12) "second final" 7. f2;
      check (Alcotest.float 1e-12) "second ratio" 0.7 r2
  | _ -> Alcotest.fail "unexpected shape"

let test_stability_driver () =
  let curve, slope = Figures.stability ~runs:3 ~vnodes:2048 ~pmin:8 ~vmin:8 ~seed:7 () in
  check Alcotest.int "length" 2048 (Array.length curve.Curve.ys);
  (* The plateau claim: past the 2nd-zone rise the curve is near-flat. *)
  check Alcotest.bool (Printf.sprintf "slope %.3f %%/1000v small" slope) true
    (abs_float slope < 3.)

(* --- Extensions (reduced scale) --- *)

(* The section-3 claim on the snode runtime, at test scale. *)
let parallel_rows () =
  Extensions.parallel ~snodes:8 ~vnodes:64 ~rate:10_000. ~vmins:[ 8; 16 ]
    ~seed:8 ()

let test_parallel_rows () =
  match parallel_rows () with
  | [ g; l8; l16 ] ->
      check Alcotest.(list string) "labels"
        [ "global"; "local Vmin=8"; "local Vmin=16" ]
        [ g.label; l8.label; l16.label ];
      List.iter
        (fun (r : Extensions.parallel_row) ->
          check Alcotest.int (r.label ^ ": all created") 64 r.par_created;
          check Alcotest.bool (r.label ^ ": audit ok") true r.par_audit_ok;
          check Alcotest.bool (r.label ^ ": latency positive") true
            (r.par_mean_latency > 0. && r.par_p95_latency > 0.))
        [ g; l8; l16 ];
      (* Global creations serialize through one queue; local groups
         balance concurrently, and smaller groups contend less. *)
      check Alcotest.bool
        (Printf.sprintf "global mean %.2g s > local %.2g s" g.par_mean_latency
           l16.par_mean_latency)
        true
        (g.par_mean_latency > l16.par_mean_latency);
      check Alcotest.bool
        (Printf.sprintf "Vmin=8 mean %.2g s < Vmin=16 %.2g s"
           l8.par_mean_latency l16.par_mean_latency)
        true
        (l8.par_mean_latency < l16.par_mean_latency);
      check Alcotest.bool "global messages >= local" true
        (g.par_messages >= l8.par_messages
        && g.par_messages >= l16.par_messages)
  | _ -> Alcotest.fail "expected three rows"

let test_hetero_report () =
  let r = Extensions.hetero ~total_vnodes:64 ~pmin:8 ~vmin:8 ~seed:9 () in
  check Alcotest.int "14 nodes" 14 (Array.length r.Extensions.names);
  check (Alcotest.float 1e-9) "quotas sum to 1" 1.
    (Dht_stats.Descriptive.sum r.Extensions.actual_quotas);
  check (Alcotest.float 1e-9) "shares sum to 1" 1.
    (Dht_stats.Descriptive.sum r.Extensions.ideal_shares);
  check Alcotest.int "vnodes apportioned" 64
    (Array.fold_left ( + ) 0 r.Extensions.vnode_counts);
  check Alcotest.bool
    (Printf.sprintf "max rel err %.3f bounded" r.Extensions.max_rel_err)
    true
    (r.Extensions.max_rel_err < 0.6);
  (* A 4x node must end with roughly 4x the quota of a 1x node. *)
  check Alcotest.bool "fast node holds more" true
    (r.Extensions.actual_quotas.(13) > 2. *. r.Extensions.actual_quotas.(0))

(* kvload runs on the snode runtime: growth streams partitions and their
   keys between snodes, and nothing may be lost or misplaced. *)
let test_kvload_report () =
  let r = Extensions.kvload ~keys:5000 ~initial_vnodes:16 ~final_vnodes:32 ~seed:10 () in
  check Alcotest.int "no key lost" 0 r.Extensions.lost;
  check Alcotest.(list string) "no invariant finding" [] r.Extensions.findings;
  check Alcotest.bool "keys changed owner" true (r.Extensions.migrations > 0);
  check Alcotest.bool "load sigma sane" true
    (r.Extensions.load_sigma_after > 0. && r.Extensions.load_sigma_after < 50.)

let test_kvload_zipf () =
  let r =
    Extensions.kvload ~keys:2000 ~initial_vnodes:8 ~final_vnodes:16 ~zipf:true
      ~seed:11 ()
  in
  check Alcotest.int "no key lost (zipf)" 0 r.Extensions.lost;
  check Alcotest.(list string) "no invariant finding" [] r.Extensions.findings;
  check Alcotest.bool "keys changed owner" true (r.Extensions.migrations > 0);
  check Alcotest.int "all keys stored" 2000 r.Extensions.keys

(* churn too: joins and leaves through the runtime's protocols. *)
let test_churn_experiment () =
  let r = Extensions.churn ~initial_vnodes:64 ~operations:120 ~keys:2000 ~pmin:8 ~vmin:8 ~seed:4 () in
  check Alcotest.int "ops" 120 r.Extensions.operations;
  check Alcotest.int "no key lost" 0 r.Extensions.churn_keys_lost;
  check Alcotest.int "no invariant finding" 0 r.Extensions.audit_failures;
  check Alcotest.bool "vnodes left" true (r.Extensions.leaves > 0);
  check Alcotest.bool "keys changed owner" true
    (r.Extensions.churn_keys_moved > 0);
  check Alcotest.int "joins + leaves <= ops" r.Extensions.operations
    (r.Extensions.joins + r.Extensions.leaves + r.Extensions.blocked_leaves);
  check Alcotest.int "population bookkeeping" r.Extensions.final_vnodes
    (64 + r.Extensions.joins - r.Extensions.leaves);
  check Alcotest.int "curve length" 120 (Array.length r.Extensions.sigma_qv_curve)

let test_chaos_recovers () =
  (* Small chaos run: drops, duplicates, jitter and one mid-burst crash —
     all operations must complete and the audit must hold once faults
     cease (the ISSUE acceptance bar, at test scale). *)
  let module Runtime = Dht_snode.Runtime in
  let r =
    Extensions.chaos ~snodes:6 ~vnodes:12 ~keys:120 ~pmin:8 ~vmin:4
      ~crashes:1 ~seed:3 ()
  in
  check Alcotest.int "all vnodes created" 12 r.Extensions.chaos_vnodes;
  check Alcotest.int "no key lost or stale" 0 r.Extensions.chaos_keys_wrong;
  check Alcotest.int "no operation stuck" 0 r.Extensions.chaos_pending;
  check Alcotest.bool "audit holds after faults" true
    r.Extensions.chaos_audit_ok;
  let s = r.Extensions.chaos_stats in
  check Alcotest.int "crashed once" 1 s.Runtime.crashes;
  check Alcotest.int "recovered once" 1 s.Runtime.recoveries;
  check Alcotest.bool "faults actually bit" true (s.Runtime.drops > 0);
  check Alcotest.bool "faulty run costs more messages" true
    (r.Extensions.chaos_messages > r.Extensions.baseline_messages)

let test_chaos_replicated_durable () =
  (* Same chaos workload through the quorum path: every acknowledged
     write must survive the crash, and the write volleys fired into the
     crash window must exercise hinted handoff. *)
  let module Runtime = Dht_snode.Runtime in
  let r =
    Extensions.chaos ~snodes:6 ~vnodes:12 ~keys:120 ~pmin:8 ~vmin:4
      ~crashes:1 ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~seed:3 ()
  in
  check Alcotest.int "no key lost or stale" 0 r.Extensions.chaos_keys_wrong;
  check Alcotest.int "no operation stuck" 0 r.Extensions.chaos_pending;
  check Alcotest.bool "audit holds after faults" true
    r.Extensions.chaos_audit_ok;
  check Alcotest.bool "writes were acknowledged" true
    (r.Extensions.chaos_acked_writes > 0);
  check Alcotest.int "no acknowledged write lost" 0
    r.Extensions.chaos_lost_acked;
  let rs = r.Extensions.chaos_repl in
  check Alcotest.bool "anti-entropy resynced cells" true
    (rs.Runtime.sync_cells > 0);
  check Alcotest.bool "hints drained on restart" true
    (rs.Runtime.hints_flushed = rs.Runtime.hints_stored)

(* --- Model-level extension drivers --- *)

let test_ablation_experiment () =
  let r = Extensions.ablation_selection ~runs:6 ~vnodes:256 ~pmin:8 ~vmin:8 ~seed:5 () in
  (* The paper's quota-proportional selection must beat uniform group
     choice on both metrics. *)
  check Alcotest.bool
    (Printf.sprintf "Qv: %.2f < %.2f" r.Extensions.quota_sigma_qv r.Extensions.uniform_sigma_qv)
    true
    (r.Extensions.quota_sigma_qv < r.Extensions.uniform_sigma_qv);
  (* sigma(Qg) is not reliably directional (membership counts equalize
     either way); just require both measurements to be meaningful. *)
  check Alcotest.bool "Qg measured" true
    (r.Extensions.quota_sigma_qg > 0. && r.Extensions.uniform_sigma_qg > 0.)

let test_hetero_compare_experiment () =
  let r = Extensions.hetero_compare ~runs:5 ~seed:7 () in
  check Alcotest.bool "local errors positive" true (r.Extensions.local_rms_err > 0.);
  check Alcotest.bool "ch errors positive" true (r.Extensions.ch_rms_err > 0.);
  (* Controlled enrollment tracks capacity far tighter than random arcs. *)
  check Alcotest.bool
    (Printf.sprintf "local rms %.3f < ch rms %.3f" r.Extensions.local_rms_err
       r.Extensions.ch_rms_err)
    true
    (r.Extensions.local_rms_err < r.Extensions.ch_rms_err)

let test_uniform_selection_runs () =
  (* The ablation selection policy is itself invariant-safe. *)
  let dht =
    Local_dht.create ~selection:Local_dht.Uniform_group ~pmin:8 ~vmin:8
      ~rng:(Rng.of_int 8) ~first:(vid 0) ()
  in
  for i = 1 to 199 do
    ignore (Local_dht.add_vnode dht ~id:(vid i))
  done;
  match Audit.check_local dht with
  | Ok () -> ()
  | Error es -> Alcotest.failf "audit: %s" (String.concat "\n" es)

let suite =
  [
    Alcotest.test_case "curve basics" `Quick test_curve_basics;
    Alcotest.test_case "mean_curve averages" `Quick test_mean_curve_averages;
    Alcotest.test_case "mean_curve distinct streams" `Quick
      test_mean_curve_distinct_streams;
    Alcotest.test_case "mean_curve reproducible" `Quick
      test_mean_curve_reproducible;
    Alcotest.test_case "runs validation" `Quick test_runs_validation;
    Alcotest.test_case "local curve shape" `Quick test_local_curve_shape;
    Alcotest.test_case "global curve deterministic" `Quick
      test_global_curve_deterministic;
    Alcotest.test_case "single group = global (zone 1)" `Quick
      test_single_group_run_equals_global;
    Alcotest.test_case "ch curve" `Quick test_ch_curve;
    Alcotest.test_case "fig4 small" `Quick test_fig4_small;
    Alcotest.test_case "fig4 ordering" `Quick test_fig4_ordering;
    Alcotest.test_case "fig5 theta" `Quick test_fig5_theta;
    Alcotest.test_case "argmin theta" `Quick test_argmin_theta;
    Alcotest.test_case "fig6 global limit" `Quick test_fig6_includes_global_limit;
    Alcotest.test_case "fig7/fig8 dynamics" `Quick test_fig7_fig8;
    Alcotest.test_case "fig9 small" `Quick test_fig9_small;
    Alcotest.test_case "zone1 driver" `Quick test_zone1_driver;
    Alcotest.test_case "plateau ratios" `Quick test_plateau_ratios;
    Alcotest.test_case "stability driver" `Quick test_stability_driver;
    Alcotest.test_case "parallel rows" `Quick test_parallel_rows;
    Alcotest.test_case "hetero report" `Quick test_hetero_report;
    Alcotest.test_case "kvload report" `Quick test_kvload_report;
    Alcotest.test_case "kvload zipf" `Quick test_kvload_zipf;
    Alcotest.test_case "chaos recovers" `Quick test_chaos_recovers;
    Alcotest.test_case "chaos replicated durable" `Quick
      test_chaos_replicated_durable;
    Alcotest.test_case "churn experiment" `Quick test_churn_experiment;
    Alcotest.test_case "selection ablation experiment" `Quick
      test_ablation_experiment;
    Alcotest.test_case "hetero compare experiment" `Quick
      test_hetero_compare_experiment;
    Alcotest.test_case "uniform selection is invariant-safe" `Quick
      test_uniform_selection_runs;
  ]
