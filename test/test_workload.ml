(* Tests for Dht_workload: Keygen and Trace. *)

module Keygen = Dht_workload.Keygen
module Trace = Dht_workload.Trace
module Rng = Dht_prng.Rng

let check = Alcotest.check

let test_uniform_keys () =
  let rng = Rng.of_int 1 in
  let k = Keygen.uniform rng in
  check Alcotest.int "length" 16 (String.length k);
  String.iter
    (fun c ->
      check Alcotest.bool "hex charset" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    k;
  check Alcotest.bool "fresh each call" true (Keygen.uniform rng <> Keygen.uniform rng)

let test_zipf_validation () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Keygen.Zipf.create ~n:0 ~s:1.));
  Alcotest.check_raises "negative s" (Invalid_argument "Zipf.create: s must be non-negative")
    (fun () -> ignore (Keygen.Zipf.create ~n:10 ~s:(-1.)))

let test_zipf_range_and_skew () =
  let z = Keygen.Zipf.create ~n:100 ~s:1.0 in
  let rng = Rng.of_int 3 in
  let counts = Array.make 101 0 in
  for _ = 1 to 20_000 do
    let r = Keygen.Zipf.sample z rng in
    check Alcotest.bool "rank in [1, 100]" true (r >= 1 && r <= 100);
    counts.(r) <- counts.(r) + 1
  done;
  check Alcotest.bool "rank 1 beats rank 10" true (counts.(1) > counts.(10));
  check Alcotest.bool "rank 1 beats rank 100" true (counts.(1) > 5 * counts.(100));
  (* Rank 1 should get about 1/H_100 ~ 19% of the mass. *)
  let share1 = float_of_int counts.(1) /. 20_000. in
  check Alcotest.bool (Printf.sprintf "share %.3f near 0.193" share1) true
    (abs_float (share1 -. 0.193) < 0.02)

let test_zipf_uniform_when_s0 () =
  let z = Keygen.Zipf.create ~n:4 ~s:0. in
  List.iter
    (fun r ->
      check (Alcotest.float 1e-9) "flat" 0.25 (Keygen.Zipf.expected_frequency z ~rank:r))
    [ 1; 2; 3; 4 ]

let test_zipf_frequencies_sum () =
  let z = Keygen.Zipf.create ~n:50 ~s:1.2 in
  let total = ref 0. in
  for r = 1 to 50 do
    let f = Keygen.Zipf.expected_frequency z ~rank:r in
    check Alcotest.bool "positive" true (f > 0.);
    total := !total +. f
  done;
  check (Alcotest.float 1e-9) "sums to 1" 1. !total;
  Alcotest.check_raises "bad rank" (Invalid_argument "Zipf.expected_frequency: rank")
    (fun () -> ignore (Keygen.Zipf.expected_frequency z ~rank:0))

let test_zipf_empirical_matches_cdf () =
  (* The heat report's planted workload: zipf(s = 0.99) over 1000 ranks.
     Pin the seeded sampler against the analytic law — per-rank frequency
     for the head, cumulative mass at a few cut points for the tail — so
     the "hot partition" the heat gate expects really is planted. *)
  let n = 1000 and s = 0.99 and draws = 50_000 in
  let z = Keygen.Zipf.create ~n ~s in
  let rng = Rng.of_int 42 in
  let counts = Array.make (n + 1) 0 in
  for _ = 1 to draws do
    let r = Keygen.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  let empirical r = float_of_int counts.(r) /. float_of_int draws in
  List.iter
    (fun rank ->
      let expected = Keygen.Zipf.expected_frequency z ~rank in
      let got = empirical rank in
      check Alcotest.bool
        (Printf.sprintf "rank %d: empirical %.4f vs analytic %.4f" rank got
           expected)
        true
        (abs_float (got -. expected) < 0.01 +. (0.15 *. expected)))
    [ 1; 2; 3; 5; 10 ];
  let cdf upto =
    let acc = ref 0. in
    for r = 1 to upto do
      acc := !acc +. Keygen.Zipf.expected_frequency z ~rank:r
    done;
    !acc
  in
  let empirical_cdf upto =
    let acc = ref 0 in
    for r = 1 to upto do
      acc := !acc + counts.(r)
    done;
    float_of_int !acc /. float_of_int draws
  in
  List.iter
    (fun upto ->
      let expected = cdf upto and got = empirical_cdf upto in
      check Alcotest.bool
        (Printf.sprintf "CDF(%d): empirical %.4f vs analytic %.4f" upto got
           expected)
        true
        (abs_float (got -. expected) < 0.01))
    [ 10; 100; 500; 1000 ];
  check (Alcotest.float 1e-9) "CDF closes at 1" 1. (cdf n)

let test_zipf_key () =
  let z = Keygen.Zipf.create ~n:10 ~s:1. in
  let k = Keygen.Zipf.key z (Rng.of_int 5) in
  check Alcotest.bool "item prefix" true (String.length k > 4 && String.sub k 0 4 = "item")

let test_trace_uniform () =
  let a = Trace.uniform ~n:4 ~period:0.5 in
  check Alcotest.(array (float 1e-12)) "spacing" [| 0.5; 1.0; 1.5; 2.0 |] a;
  Alcotest.check_raises "bad period" (Invalid_argument "Trace.uniform: period must be positive")
    (fun () -> ignore (Trace.uniform ~n:2 ~period:0.))

let test_trace_poisson () =
  let a = Trace.poisson ~rng:(Rng.of_int 11) ~n:5000 ~rate:100. in
  check Alcotest.int "length" 5000 (Array.length a);
  Array.iteri
    (fun i t ->
      check Alcotest.bool "positive" true (t > 0.);
      if i > 0 then check Alcotest.bool "sorted" true (t >= a.(i - 1)))
    a;
  (* Mean inter-arrival 1/rate -> last arrival near n/rate. *)
  check Alcotest.bool
    (Printf.sprintf "span %.1f near 50" a.(4999))
    true
    (a.(4999) > 45. && a.(4999) < 55.)

let suite =
  [
    Alcotest.test_case "uniform keys" `Quick test_uniform_keys;
    Alcotest.test_case "zipf validation" `Quick test_zipf_validation;
    Alcotest.test_case "zipf range and skew" `Quick test_zipf_range_and_skew;
    Alcotest.test_case "zipf flat at s=0" `Quick test_zipf_uniform_when_s0;
    Alcotest.test_case "zipf frequencies sum to 1" `Quick
      test_zipf_frequencies_sum;
    Alcotest.test_case "zipf sampler matches the analytic CDF" `Quick
      test_zipf_empirical_matches_cdf;
    Alcotest.test_case "zipf key form" `Quick test_zipf_key;
    Alcotest.test_case "uniform trace" `Quick test_trace_uniform;
    Alcotest.test_case "poisson trace" `Quick test_trace_poisson;
  ]
