(* Tests for the distributed creation protocols (§3) as the snode runtime
   runs them, driven through Extensions.parallel at test scale. *)

open Dht_core
module Extensions = Dht_experiments.Extensions
module Runtime = Dht_snode.Runtime

let check = Alcotest.check

let rows ?(snodes = 8) ?(vmins = [ 8; 16 ]) () =
  Extensions.parallel ~snodes ~vnodes:64 ~rate:10_000. ~vmins ~seed:8 ()

(* Global, local Vmin=8 and local Vmin=16 on 8 snodes. *)
let three_rows () =
  match rows () with
  | [ g; l8; l16 ] -> (g, l8, l16)
  | _ -> Alcotest.fail "expected three rows"

let test_completes_all () =
  let g, l8, l16 = three_rows () in
  List.iter
    (fun (r : Extensions.parallel_row) ->
      check Alcotest.int (r.label ^ ": creations") 64 r.par_created;
      check Alcotest.bool (r.label ^ ": audit ok") true r.par_audit_ok;
      check Alcotest.bool (r.label ^ ": positive latency") true
        (r.par_mean_latency > 0. && r.par_p95_latency > 0.);
      check Alcotest.bool (r.label ^ ": makespan covers latencies") true
        (r.par_makespan >= r.par_p95_latency))
    [ g; l8; l16 ]

let test_local_beats_global_under_load () =
  let g, _, l16 = three_rows () in
  check Alcotest.bool
    (Printf.sprintf "makespan %.4f < %.4f" l16.par_makespan g.par_makespan)
    true
    (l16.par_makespan < g.par_makespan);
  check Alcotest.bool
    (Printf.sprintf "mean latency %.2g < %.2g" l16.par_mean_latency
       g.par_mean_latency)
    true
    (l16.par_mean_latency < g.par_mean_latency)

let test_smaller_groups_more_parallel () =
  (* The paper's tradeoff: smaller Vmin -> more groups -> less contention. *)
  let _, l8, l16 = three_rows () in
  check Alcotest.bool
    (Printf.sprintf "Vmin=8 mean %.2g < Vmin=16 %.2g" l8.par_mean_latency
       l16.par_mean_latency)
    true
    (l8.par_mean_latency < l16.par_mean_latency)

let global_messages snodes =
  match rows ~snodes ~vmins:[] () with
  | [ g ] -> g.par_messages
  | _ -> Alcotest.fail "expected one row"

let test_global_messages_scale_with_snodes () =
  (* Under the global approach every snode takes part in every creation. *)
  let small = global_messages 8 and big = global_messages 32 in
  check Alcotest.bool
    (Printf.sprintf "32 snodes %d > 8 snodes %d" big small)
    true (big > small)

let test_local_messages_bounded_by_group () =
  (* Local creations synchronise one group of at most Vmax vnodes, not the
     whole cluster. *)
  match rows ~snodes:32 ~vmins:[ 8 ] () with
  | [ g; l ] ->
      check Alcotest.bool
        (Printf.sprintf "local %d < global %d" l.par_messages g.par_messages)
        true
        (l.par_messages < g.par_messages)
  | _ -> Alcotest.fail "expected two rows"

let test_validation () =
  let parallel ?(snodes = 4) ?(rate = 1000.) vnodes () =
    ignore (Extensions.parallel ~snodes ~vnodes ~rate ~vmins:[] ~seed:1 ())
  in
  Alcotest.check_raises "no creations"
    (Invalid_argument "Extensions.parallel: vnodes < 1") (parallel 0);
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Rng.exponential: rate must be positive")
    (parallel ~rate:0. 4);
  Alcotest.check_raises "no snodes"
    (Invalid_argument "Runtime.create: need at least one snode")
    (parallel ~snodes:0 4)

let test_determinism () =
  check Alcotest.bool "same seed, same rows" true (rows () = rows ())

let test_throughput_and_percentiles () =
  let g, _, _ = three_rows () in
  check Alcotest.bool "throughput positive" true
    (float_of_int g.par_created /. g.par_makespan > 0.);
  check Alcotest.bool "p95 >= mean is typical here" true
    (g.par_p95_latency >= g.par_mean_latency /. 2.)

let test_bulk_arrivals () =
  (* All requests at t=0: the global protocol must still serialize them and
     terminate. *)
  let rt = Runtime.create ~approach:Runtime.Global ~snodes:4 ~seed:5 () in
  let done_ = ref 0 in
  for i = 1 to 32 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(i mod 4) ~vnode:(i / 4))
      ~on_done:(fun () -> incr done_)
      ()
  done;
  Runtime.run rt;
  check Alcotest.int "all done" 32 (Runtime.completed_creations rt);
  check Alcotest.int "each reported once" 32 !done_;
  match Dht_check.Invariants.(to_strings (check_runtime rt)) with
  | [] -> ()
  | es -> Alcotest.fail (String.concat "\n" es)

let suite =
  [
    Alcotest.test_case "completes all creations" `Quick test_completes_all;
    Alcotest.test_case "local beats global under load" `Quick
      test_local_beats_global_under_load;
    Alcotest.test_case "smaller groups, more parallelism" `Quick
      test_smaller_groups_more_parallel;
    Alcotest.test_case "global traffic scales with snodes" `Quick
      test_global_messages_scale_with_snodes;
    Alcotest.test_case "local traffic bounded by group size" `Quick
      test_local_messages_bounded_by_group;
    Alcotest.test_case "input validation" `Quick test_validation;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "throughput and percentiles" `Quick
      test_throughput_and_percentiles;
    Alcotest.test_case "bulk arrivals" `Quick test_bulk_arrivals;
  ]
