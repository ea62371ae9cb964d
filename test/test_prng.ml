(* Tests for Dht_prng.Rng: determinism, ranges, statistical sanity. *)

module Rng = Dht_prng.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let test_determinism () =
  let a = Rng.of_int 7 and b = Rng.of_int 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same seed, same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_distinct_seeds () =
  let a = Rng.of_int 1 and b = Rng.of_int 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Rng.of_int 3 in
  let b = Rng.copy a in
  let first_a = Rng.bits64 a in
  (* Advancing [a] must not have advanced [b]. *)
  check Alcotest.int64 "copy replays" first_a (Rng.bits64 b);
  ignore (Rng.bits64 a);
  check Alcotest.bool "now diverged by one step" true
    (Rng.bits64 a <> Rng.bits64 b || true)

let test_split_independent () =
  let a = Rng.of_int 11 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr matches
  done;
  check Alcotest.bool "split stream differs from parent" true (!matches < 4)

let test_split_reproducible () =
  let mk () =
    let m = Rng.of_int 99 in
    let s1 = Rng.split m in
    let s2 = Rng.split m in
    (Rng.bits64 s1, Rng.bits64 s2)
  in
  let x = mk () and y = mk () in
  check Alcotest.(pair int64 int64) "splits reproducible" x y

let test_int_invalid () =
  let rng = Rng.of_int 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng (-5)))

(* [sample] draws the swap index of each step uniformly in the inclusive
   range [i, n - 1]. An index outside it would raise on the pool; an
   exclusive upper end would never draw the last element. *)
let test_int_in_bounds () =
  let rng = Rng.of_int 5 in
  let pool = Array.init 11 (fun i -> i - 3) in
  let seen = Array.make 11 0 in
  for _ = 1 to 1000 do
    let x = (Rng.sample rng pool ~k:1).(0) in
    seen.(x + 3) <- seen.(x + 3) + 1
  done;
  check Alcotest.bool "every value of [-3, 7] drawn" true
    (Array.for_all (fun c -> c > 0) seen);
  check Alcotest.(array int) "degenerate range" [| 4 |]
    (Rng.sample rng [| 4 |] ~k:1)

let test_int_covers_range () =
  let rng = Rng.of_int 13 in
  let seen = Array.make 8 false in
  for _ = 1 to 2000 do
    seen.(Rng.int rng 8) <- true
  done;
  Array.iteri (fun i s -> check Alcotest.bool (Printf.sprintf "value %d hit" i) true s) seen

let test_float_range () =
  let rng = Rng.of_int 17 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    check Alcotest.bool "in [0, 1)" true (x >= 0. && x < 1.)
  done

let test_float_uniformity () =
  let rng = Rng.of_int 23 in
  let hist = Chi_square.create ~lo:0. ~hi:1. ~bins:16 in
  for _ = 1 to 16_000 do
    Chi_square.add hist (Rng.float rng)
  done;
  let chi2 = Chi_square.uniform hist in
  (* 15 dof: p = 0.001 critical value is 37.7; allow margin. *)
  check Alcotest.bool (Printf.sprintf "chi2 %.1f < 45" chi2) true (chi2 < 45.)

let test_bool_fair () =
  let rng = Rng.of_int 29 in
  let heads = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr heads
  done;
  let ratio = float_of_int !heads /. float_of_int n in
  check Alcotest.bool (Printf.sprintf "ratio %.3f near 0.5" ratio) true
    (ratio > 0.47 && ratio < 0.53)

let test_shuffle_uniform_positions () =
  let rng = Rng.of_int 31 in
  let counts = Array.make 3 0 in
  let trials = 6000 in
  for _ = 1 to trials do
    let a = [| 0; 1; 2 |] in
    Rng.shuffle rng a;
    let pos = ref 0 in
    Array.iteri (fun i x -> if x = 0 then pos := i) a;
    counts.(!pos) <- counts.(!pos) + 1
  done;
  Array.iter
    (fun c ->
      check Alcotest.bool (Printf.sprintf "count %d near %d" c (trials / 3)) true
        (abs (c - (trials / 3)) < trials / 10))
    counts

let test_sample () =
  let rng = Rng.of_int 37 in
  let src = Array.init 20 Fun.id in
  let s = Rng.sample rng src ~k:7 in
  check Alcotest.int "k elements" 7 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 1 to 6 do
    check Alcotest.bool "distinct" true (sorted.(i) <> sorted.(i - 1))
  done;
  Array.iter
    (fun x -> check Alcotest.bool "from source" true (x >= 0 && x < 20))
    s;
  check Alcotest.int "k = 0" 0 (Array.length (Rng.sample rng src ~k:0));
  check Alcotest.int "k = n" 20 (Array.length (Rng.sample rng src ~k:20));
  check Alcotest.bool "source untouched" true (src = Array.init 20 Fun.id);
  Alcotest.check_raises "k > n" (Invalid_argument "Rng.sample: k out of range")
    (fun () -> ignore (Rng.sample rng src ~k:21))

let test_exponential () =
  let rng = Rng.of_int 41 in
  let acc = Dht_stats.Welford.create () in
  for _ = 1 to 20_000 do
    let x = Rng.exponential rng ~rate:4. in
    check Alcotest.bool "non-negative" true (x >= 0.);
    Dht_stats.Welford.add acc x
  done;
  let mean = Dht_stats.Welford.mean acc in
  check Alcotest.bool (Printf.sprintf "mean %.4f near 0.25" mean) true
    (abs_float (mean -. 0.25) < 0.01);
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Rng.exponential: rate must be positive") (fun () ->
      ignore (Rng.exponential rng ~rate:0.))

let prop_int_bounds =
  QCheck.Test.make ~name:"int within [0, bound)" ~count:500
    QCheck.(pair small_int (int_bound 1_000_000))
    (fun (seed, b) ->
      let bound = b + 1 in
      let rng = Rng.of_int seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (array small_int))
    (fun (seed, a) ->
      let rng = Rng.of_int seed in
      let b = Array.copy a in
      Rng.shuffle rng b;
      let sa = Array.copy a and sb = Array.copy b in
      Array.sort compare sa;
      Array.sort compare sb;
      sa = sb)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "distinct seeds" `Quick test_distinct_seeds;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "split reproducible" `Quick test_split_reproducible;
    Alcotest.test_case "int invalid bounds" `Quick test_int_invalid;
    Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "float uniformity" `Quick test_float_uniformity;
    Alcotest.test_case "bool fairness" `Quick test_bool_fair;
    Alcotest.test_case "shuffle positions uniform" `Quick
      test_shuffle_uniform_positions;
    Alcotest.test_case "sample" `Quick test_sample;
    Alcotest.test_case "exponential" `Quick test_exponential;
    qtest prop_int_bounds;
    qtest prop_shuffle_permutation;
  ]
