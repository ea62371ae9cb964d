(* Tests for Dht_telemetry: histogram geometry, quantiles, merge,
   the labeled registry, and the seeded trace-determinism pin. *)

module Histogram = Dht_telemetry.Histogram
module Registry = Dht_telemetry.Registry
module Trace = Dht_telemetry.Trace
module Runtime = Dht_snode.Runtime
module Rng = Dht_prng.Rng

let check = Alcotest.check

(* --- Histogram: bucket boundaries --- *)

(* The [(lo, hi)] range of the bucket one observation lands in, read back
   from a fresh histogram of the given geometry. *)
let landing ~lo ~growth ~bins x =
  let h = Histogram.create ~lo ~growth ~bins () in
  Histogram.observe h x;
  match Histogram.buckets h with
  | [ (l, u, 1) ] -> (l, u)
  | _ -> Alcotest.failf "%g: expected exactly one non-empty bucket" x

let test_bucket_boundaries () =
  let bucket = landing ~lo:1.0 ~growth:2.0 ~bins:4 in
  let range = Alcotest.(pair (float 1e-9) (float 1e-9)) in
  (* Buckets: [1,2) [2,4) [4,8) [8,16); below 1 underflow, >= 16 overflow. *)
  check range "below lo is underflow" (0., 1.) (bucket 0.5);
  check range "zero is underflow" (0., 1.) (bucket 0.0);
  check range "lo lands in bucket 0" (1., 2.) (bucket 1.0);
  check range "just under edge stays" (1., 2.) (bucket 1.999);
  (* A boundary value belongs to the bucket whose lower edge it equals,
     despite log () rounding. *)
  check range "edge 2 opens bucket 1" (2., 4.) (bucket 2.0);
  check range "edge 4 opens bucket 2" (4., 8.) (bucket 4.0);
  check range "edge 8 opens bucket 3" (8., 16.) (bucket 8.0);
  check range "top edge is overflow" (16., infinity) (bucket 16.0);
  check range "far overflow" (16., infinity) (bucket 1e9)

let test_bucket_edges_against_drift () =
  (* Every lower edge lo·growth^i must land in its own bucket for a
     geometry whose edges are not exactly representable. *)
  for i = 0 to 47 do
    let edge = 1e-6 *. (1.7 ** float_of_int i) in
    let l, _ = landing ~lo:1e-6 ~growth:1.7 ~bins:48 edge in
    check (Alcotest.float 0.) (Printf.sprintf "edge of bucket %d" i) edge l
  done

let test_observe_rejects_bad_values () =
  let h = Histogram.create () in
  (match Histogram.observe h (-1.0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative accepted");
  (match Histogram.observe h nan with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "nan accepted")

(* --- Histogram: quantiles --- *)

let test_quantile_monotone =
  QCheck.Test.make ~count:200 ~name:"quantile is monotone in q"
    QCheck.(pair (list_of_size Gen.(1 -- 200) (float_bound_exclusive 1e3))
              (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)))
    (fun (xs, (q1, q2)) ->
      let h = Histogram.create ~lo:1e-3 ~growth:2.0 ~bins:24 () in
      List.iter (fun x -> Histogram.observe h (abs_float x)) xs;
      let q1, q2 = (Float.min q1 q2, Float.max q1 q2) in
      Histogram.quantile h q1 <= Histogram.quantile h q2)

let test_quantile_brackets_observations () =
  let h = Histogram.create ~lo:1e-3 ~growth:2.0 ~bins:30 () in
  let rng = Rng.of_int 7 in
  let xs = Array.init 500 (fun _ -> Rng.float rng *. 100.) in
  Array.iter (Histogram.observe h) xs;
  Array.sort compare xs;
  (* The quantile is the upper edge of the rank's bucket: an over-estimate
     of the exact order statistic, but never by more than one growth
     factor. *)
  List.iter
    (fun q ->
      let exact = xs.(int_of_float (q *. 499.)) in
      let approx = Histogram.quantile h q in
      check Alcotest.bool (Printf.sprintf "q=%.2f upper bound" q) true
        (approx >= exact);
      check Alcotest.bool (Printf.sprintf "q=%.2f within growth" q) true
        (approx <= exact *. 2.0 +. 1e-3))
    [ 0.1; 0.5; 0.9; 0.99 ]

let test_quantile_empty_and_extremes () =
  let h = Histogram.create () in
  check Alcotest.bool "empty is nan" true (Float.is_nan (Histogram.quantile h 0.5));
  Histogram.observe h 0.5;
  check (Alcotest.float 1e-9) "single obs at q=0" (Histogram.quantile h 0.)
    (Histogram.quantile h 1.)

(* --- Histogram: merge --- *)

let fill seed n h =
  let rng = Rng.of_int seed in
  for _ = 1 to n do
    Histogram.observe h (Rng.float rng *. 50.)
  done;
  h

let mk () = Histogram.create ~lo:1e-3 ~growth:2.0 ~bins:24 ()

let buckets_eq name a b =
  check
    Alcotest.(list (triple (float 1e-9) (float 1e-9) int))
    name (Histogram.buckets a) (Histogram.buckets b)

let test_merge_associative () =
  let a () = fill 1 100 (mk ()) in
  let b () = fill 2 250 (mk ()) in
  let c () = fill 3 50 (mk ()) in
  let left = Histogram.merge (Histogram.merge (a ()) (b ())) (c ()) in
  let right = Histogram.merge (a ()) (Histogram.merge (b ()) (c ())) in
  buckets_eq "bucket counts associative" left right;
  check Alcotest.int "count" (Histogram.count left) (Histogram.count right);
  check (Alcotest.float 1e-9) "mean" (Histogram.mean left) (Histogram.mean right)

let test_merge_commutative_and_identity () =
  let a () = fill 4 80 (mk ()) in
  let b () = fill 5 120 (mk ()) in
  buckets_eq "commutative" (Histogram.merge (a ()) (b ()))
    (Histogram.merge (b ()) (a ()));
  buckets_eq "empty is identity" (Histogram.merge (a ()) (mk ())) (a ())

let test_merge_rejects_shape_mismatch () =
  let a = Histogram.create ~lo:1e-3 ~growth:2.0 ~bins:24 () in
  let b = Histogram.create ~lo:1e-3 ~growth:2.0 ~bins:32 () in
  match Histogram.merge a b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shape mismatch accepted"

(* --- Registry --- *)

let test_registry_find_or_create () =
  let reg = Registry.create () in
  let c1 = Registry.counter reg ~labels:[ ("tag", "ack") ] "net.messages" in
  let c2 = Registry.counter reg ~labels:[ ("tag", "ack") ] "net.messages" in
  Registry.inc c1 3;
  Registry.inc c2 4;
  let value labels =
    List.find_map
      (fun (r : Registry.row) ->
        if r.Registry.name = "net.messages" && r.Registry.labels = labels then
          Some r.Registry.value
        else None)
      (Registry.rows reg)
  in
  check Alcotest.(option (float 0.)) "same instrument" (Some 7.)
    (value [ ("tag", "ack") ]);
  ignore (Registry.counter reg ~labels:[ ("tag", "req") ] "net.messages");
  check Alcotest.(option (float 0.)) "different labels separate" (Some 0.)
    (value [ ("tag", "req") ]);
  let h1 = Registry.histogram reg "lat" and h2 = Registry.histogram reg "lat" in
  Histogram.observe h1 1.0;
  check Alcotest.int "histogram shared" 1 (Histogram.count h2)

let test_registry_kind_clash () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "x");
  match Registry.gauge reg "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash accepted"

let test_registry_rows_sorted () =
  let reg = Registry.create () in
  Registry.inc (Registry.counter reg "b.second") 1;
  Registry.inc (Registry.counter reg ~labels:[ ("t", "z") ] "a.first") 1;
  Registry.inc (Registry.counter reg ~labels:[ ("t", "a") ] "a.first") 1;
  Registry.set (Registry.gauge reg "c.third") 2.5;
  let names =
    List.map
      (fun (r : Registry.row) ->
        (r.Registry.name, List.map snd r.Registry.labels))
      (Registry.rows reg)
  in
  check
    Alcotest.(list (pair string (list string)))
    "sorted by (name, labels)"
    [ ("a.first", [ "a" ]); ("a.first", [ "z" ]); ("b.second", []);
      ("c.third", []) ]
    names;
  check Alcotest.int "csv rows match" 4 (List.length (Registry.csv_rows reg))

let test_registry_readonly_lookup () =
  let reg = Registry.create () in
  let hp = Registry.histogram reg ~labels:[ ("op", "put") ] "q.latency" in
  let hg = Registry.histogram reg ~labels:[ ("op", "get") ] "q.latency" in
  Histogram.observe hp 1.0;
  Histogram.observe hp 2.0;
  Histogram.observe hg 4.0;
  (* Subset label match: no labels selects every shard, a full label pins
     one. *)
  let merged_count labels =
    Option.map Histogram.count (Registry.merged reg ~labels "q.latency")
  in
  check Alcotest.(option int) "all shards" (Some 3) (merged_count []);
  check Alcotest.(option int) "one shard" (Some 2)
    (merged_count [ ("op", "put") ]);
  check Alcotest.(option int) "no shard" None (merged_count [ ("op", "del") ]);
  (* merged aggregates across shards: the count is the sum and the merged
     quantile equals the one from observing everything into one series. *)
  (match Registry.merged reg "q.latency" with
  | None -> Alcotest.fail "merged found nothing"
  | Some m ->
      check Alcotest.int "merged count" 3 (Histogram.count m);
      let direct = Histogram.create () in
      List.iter (Histogram.observe direct) [ 1.0; 2.0; 4.0 ];
      check (Alcotest.float 1e-9) "merged p50 = combined p50"
        (Histogram.quantile direct 0.5) (Histogram.quantile m 0.5));
  (* Read-only: looking up an absent metric must not invent instruments
     that would then leak into rows/CSV. *)
  let before = List.length (Registry.rows reg) in
  check Alcotest.bool "absent metric is None" true
    (Registry.merged reg "never.observed" = None);
  check Alcotest.int "lookup registered nothing" before
    (List.length (Registry.rows reg));
  (* Merging never mutates the shards. *)
  check Alcotest.int "put shard untouched" 2 (Histogram.count hp);
  check Alcotest.int "get shard untouched" 1 (Histogram.count hg)

(* --- Trace sinks --- *)

let test_noop_is_disabled () =
  check Alcotest.bool "disabled" false (Trace.enabled Trace.noop);
  Trace.instant Trace.noop ~ts:0. ~tid:0 ~name:"x" [];
  check Alcotest.int "no events" 0 (Trace.events Trace.noop)

let test_trace_formats () =
  let buf = Buffer.create 256 in
  let tr = Trace.to_buffer Jsonl buf in
  Trace.instant tr ~ts:1e-3 ~tid:2 ~name:"drop" [ ("seq", Trace.Int 5) ];
  Trace.span tr ~ts:2e-3 ~dur:1e-3 ~tid:0 ~name:"op"
    [ ("op", Trace.Str "put"); ("ok", Trace.Bool true) ];
  Trace.close tr;
  let lines = String.split_on_char '\n' (String.trim (Buffer.contents buf)) in
  check Alcotest.int "one JSON object per event" 2 (List.length lines);
  List.iter
    (fun l ->
      check Alcotest.bool "looks like an object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  let cbuf = Buffer.create 256 in
  let ctr = Trace.to_buffer Chrome cbuf in
  Trace.instant ctr ~ts:1e-3 ~tid:2 ~name:"drop" [];
  Trace.close ctr;
  let s = String.trim (Buffer.contents cbuf) in
  check Alcotest.bool "chrome trace is a JSON array" true
    (s.[0] = '[' && s.[String.length s - 1] = ']')

let test_format_of_path () =
  check Alcotest.bool "jsonl suffix" true
    (Trace.format_of_path "a/b/t.jsonl" = Trace.Jsonl);
  check Alcotest.bool "json suffix is chrome" true
    (Trace.format_of_path "t.json" = Trace.Chrome)

(* --- Seeded determinism: the trace is a regression oracle --- *)

(* A faulty runtime burst: creations, puts and gets under drops,
   duplicates and jitter — exercising retransmit, backoff and op spans. *)
let traced_run () =
  let buf = Buffer.create 4096 in
  let trace = Trace.to_buffer Jsonl buf in
  let reg = Registry.create () in
  let faults =
    Runtime.Fault.create ~drop:0.05 ~duplicate:0.02 ~jitter:1e-4 ~seed:2004 ()
  in
  let rt =
    Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~faults
      ~metrics:reg ~trace ~snodes:8 ~seed:2004 ()
  in
  for i = 1 to 24 do
    Runtime.create_vnode rt
      ~id:(Dht_core.Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8))
      ()
  done;
  Runtime.run rt;
  for i = 0 to 99 do
    Runtime.put rt ~key:(string_of_int i) ~value:"v" ()
  done;
  Runtime.run rt;
  for i = 0 to 99 do
    Runtime.get rt ~key:(string_of_int i) (fun _ -> ())
  done;
  Runtime.run rt;
  Runtime.record_metrics rt reg;
  Trace.close trace;
  (Buffer.contents buf, Registry.csv_rows reg)

let test_trace_deterministic () =
  let trace1, rows1 = traced_run () in
  let trace2, rows2 = traced_run () in
  check Alcotest.bool "trace is non-trivial" true (String.length trace1 > 1000);
  check Alcotest.string "traces byte-identical" trace1 trace2;
  check
    Alcotest.(list (list string))
    "metrics identical" rows1 rows2

let suite =
  [
    Alcotest.test_case "histogram: bucket boundaries" `Quick
      test_bucket_boundaries;
    Alcotest.test_case "histogram: edges survive fp drift" `Quick
      test_bucket_edges_against_drift;
    Alcotest.test_case "histogram: rejects bad observations" `Quick
      test_observe_rejects_bad_values;
    QCheck_alcotest.to_alcotest test_quantile_monotone;
    Alcotest.test_case "histogram: quantile brackets order stats" `Quick
      test_quantile_brackets_observations;
    Alcotest.test_case "histogram: quantile edge cases" `Quick
      test_quantile_empty_and_extremes;
    Alcotest.test_case "histogram: merge associative" `Quick
      test_merge_associative;
    Alcotest.test_case "histogram: merge commutative, empty identity" `Quick
      test_merge_commutative_and_identity;
    Alcotest.test_case "histogram: merge rejects shape mismatch" `Quick
      test_merge_rejects_shape_mismatch;
    Alcotest.test_case "registry: find-or-create by (name, labels)" `Quick
      test_registry_find_or_create;
    Alcotest.test_case "registry: kind clash rejected" `Quick
      test_registry_kind_clash;
    Alcotest.test_case "registry: rows sorted deterministically" `Quick
      test_registry_rows_sorted;
    Alcotest.test_case "registry: read-only histogram lookup and merge" `Quick
      test_registry_readonly_lookup;
    Alcotest.test_case "trace: noop records nothing" `Quick
      test_noop_is_disabled;
    Alcotest.test_case "trace: jsonl and chrome writers" `Quick
      test_trace_formats;
    Alcotest.test_case "trace: format from path" `Quick test_format_of_path;
    Alcotest.test_case "trace: byte-identical across seeded runs" `Quick
      test_trace_deterministic;
  ]
