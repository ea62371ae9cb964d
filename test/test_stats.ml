(* Tests for Dht_stats (Welford, Descriptive, Series, Regression) and the
   chi-square helper the uniformity tests use. *)

module W = Dht_stats.Welford
module D = Dht_stats.Descriptive
module Series = Dht_stats.Series
module H = Chi_square
module R = Dht_stats.Regression

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qtest = QCheck_alcotest.to_alcotest

(* --- Welford --- *)

let test_welford_known () =
  let w = W.create () in
  List.iter (W.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check Alcotest.int "count" 8 (W.count w);
  checkf "mean" 5. (W.mean w)

let test_welford_empty () =
  let w = W.create () in
  check Alcotest.int "count" 0 (W.count w);
  checkf "mean" 0. (W.mean w)

let test_welford_single () =
  let w = W.create () in
  W.add w 42.;
  checkf "mean" 42. (W.mean w)

let prop_welford_matches_direct =
  QCheck.Test.make ~name:"welford matches two-pass formulas" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let arr = Array.of_list xs in
      let w = W.create () in
      Array.iter (W.add w) arr;
      abs_float (W.mean w -. D.mean arr) < 1e-6)

let prop_welford_merge =
  QCheck.Test.make ~name:"welford merge = concatenation" ~count:200
    QCheck.(pair (list (float_bound_exclusive 100.)) (list (float_bound_exclusive 100.)))
    (fun (xs, ys) ->
      let wa = W.create () and wb = W.create () and wc = W.create () in
      List.iter (W.add wa) xs;
      List.iter (W.add wb) ys;
      List.iter (W.add wc) (xs @ ys);
      let m = W.merge wa wb in
      W.count m = W.count wc && abs_float (W.mean m -. W.mean wc) < 1e-6)

(* --- Descriptive --- *)

let test_descriptive_basics () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  checkf "sum" 10. (D.sum xs);
  checkf "mean" 2.5 (D.mean xs);
  checkf "mean empty" 0. (D.mean [||])

let test_kahan_sum () =
  (* Naive summation of 1e8 copies of 1e-8 drifts; Kahan should stay exact
     to near machine precision. *)
  let xs = Array.make 100_000 0.1 in
  check (Alcotest.float 1e-9) "compensated" 10000. (D.sum xs)

let test_stddev_known () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  checkf "population, about the mean" 2.
    (D.rel_stddev_about xs ~about:(D.mean xs) *. D.mean xs);
  checkf "singleton" 0. (D.rel_stddev_about [| 3. |] ~about:3.)

let test_rel_stddev_about () =
  (* Two quotas 2/3 and 1/3 against the ideal 1/2: deviations 1/6, so the
     relative sigma is (1/6)/(1/2) = 1/3. *)
  let xs = [| 2. /. 3.; 1. /. 3. |] in
  checkf "against ideal" (1. /. 3.) (D.rel_stddev_about xs ~about:0.5);
  Alcotest.check_raises "about = 0"
    (Invalid_argument "Descriptive.rel_stddev_about: about = 0") (fun () ->
      ignore (D.rel_stddev_about xs ~about:0.))

let prop_rel_stddev_scale_invariant =
  (* §2.4: if Yi = c·Xi then the relative standard deviation is unchanged. *)
  QCheck.Test.make ~name:"relative sigma is scale invariant (paper 2.4)"
    ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 2 30) (float_range 0.1 100.))
        (float_range 0.1 50.))
    (fun (xs, c) ->
      let arr = Array.of_list xs in
      let scaled = Array.map (fun x -> c *. x) arr in
      let rel_stddev xs = D.rel_stddev_about xs ~about:(D.mean xs) in
      abs_float (rel_stddev arr -. rel_stddev scaled) < 1e-9)

let test_percentile () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  checkf "p0 = min" 15. (D.percentile xs ~p:0.);
  checkf "p1 = max" 50. (D.percentile xs ~p:1.);
  checkf "median odd" 35. (D.percentile xs ~p:0.5);
  checkf "median even" 2.5 (D.percentile [| 1.; 2.; 3.; 4. |] ~p:0.5);
  checkf "interpolated" 17.5 (D.percentile xs ~p:0.125);
  Alcotest.check_raises "empty" (Invalid_argument "Descriptive.percentile: empty array")
    (fun () -> ignore (D.percentile [||] ~p:0.5));
  Alcotest.check_raises "p > 1"
    (Invalid_argument "Descriptive.percentile: p outside [0, 1]") (fun () ->
      ignore (D.percentile xs ~p:1.5))

(* --- Series --- *)

let test_series_mean () =
  let s = Series.create ~len:3 in
  Series.add_run s [| 1.; 2.; 3. |];
  Series.add_run s [| 3.; 4.; 5. |];
  check
    Alcotest.(array (float 1e-9))
    "pointwise mean" [| 2.; 3.; 4. |] (Series.mean s)

let test_series_validation () =
  let s = Series.create ~len:2 in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Series.add_run: curve length mismatch") (fun () ->
      Series.add_run s [| 1. |]);
  Alcotest.check_raises "negative length"
    (Invalid_argument "Series.create: negative length") (fun () ->
      ignore (Series.create ~len:(-1)))

(* --- Histogram --- *)

let test_histogram () =
  let h = H.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (H.add h) [ 0.; 1.9; 2.; 5.5; 9.99; -1.; 10.; 11. ];
  check Alcotest.int "total" 5 (H.total h);
  check Alcotest.int "underflow" 1 (H.underflow h);
  check Alcotest.int "overflow" 2 (H.overflow h);
  check Alcotest.(array int) "counts" [| 2; 1; 1; 0; 1 |] (H.counts h)

let test_histogram_chi2 () =
  let h = H.create ~lo:0. ~hi:4. ~bins:4 in
  List.iter (H.add h) [ 0.5; 1.5; 2.5; 3.5 ];
  checkf "uniform -> 0" 0. (H.uniform h);
  let empty = H.create ~lo:0. ~hi:1. ~bins:2 in
  Alcotest.check_raises "empty" (Invalid_argument "Chi_square.uniform: empty")
    (fun () -> ignore (H.uniform empty))

let test_histogram_validation () =
  Alcotest.check_raises "bins 0"
    (Invalid_argument "Chi_square.create: bins must be positive")
    (fun () -> ignore (H.create ~lo:0. ~hi:1. ~bins:0));
  Alcotest.check_raises "hi <= lo"
    (Invalid_argument "Chi_square.create: hi <= lo")
    (fun () -> ignore (H.create ~lo:1. ~hi:1. ~bins:4))

(* --- Regression --- *)

let test_regression_exact_line () =
  let xs = [| 0.; 1.; 2.; 3. |] in
  let ys = Array.map (fun x -> (2.5 *. x) -. 1. ) xs in
  let f = R.fit ~xs ~ys in
  checkf "slope" 2.5 f.R.slope;
  checkf "intercept" (-1.) f.R.intercept;
  checkf "r2" 1. f.R.r2

let test_regression_flat () =
  let f = R.fit ~xs:[| 1.; 2.; 3. |] ~ys:[| 5.; 5.; 5. |] in
  checkf "flat slope" 0. f.R.slope;
  checkf "flat r2 (degenerate -> 1)" 1. f.R.r2

let test_regression_validation () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Regression.fit: length mismatch")
    (fun () -> ignore (R.fit ~xs:[| 1. |] ~ys:[| 1.; 2. |]));
  Alcotest.check_raises "too few" (Invalid_argument "Regression.fit: need at least 2 points")
    (fun () -> ignore (R.fit ~xs:[| 1. |] ~ys:[| 1. |]));
  Alcotest.check_raises "degenerate x" (Invalid_argument "Regression.fit: all xs equal")
    (fun () -> ignore (R.fit ~xs:[| 2.; 2. |] ~ys:[| 1.; 3. |]))

let suite =
  [
    Alcotest.test_case "welford known series" `Quick test_welford_known;
    Alcotest.test_case "welford empty" `Quick test_welford_empty;
    Alcotest.test_case "welford single" `Quick test_welford_single;
    qtest prop_welford_matches_direct;
    qtest prop_welford_merge;
    Alcotest.test_case "descriptive basics" `Quick test_descriptive_basics;
    Alcotest.test_case "kahan summation" `Quick test_kahan_sum;
    Alcotest.test_case "stddev known" `Quick test_stddev_known;
    Alcotest.test_case "relative sigma vs ideal" `Quick test_rel_stddev_about;
    qtest prop_rel_stddev_scale_invariant;
    Alcotest.test_case "percentiles" `Quick test_percentile;
    Alcotest.test_case "series mean/sd" `Quick test_series_mean;
    Alcotest.test_case "series validation" `Quick test_series_validation;
    Alcotest.test_case "histogram counting" `Quick test_histogram;
    Alcotest.test_case "histogram chi-square" `Quick test_histogram_chi2;
    Alcotest.test_case "histogram validation" `Quick test_histogram_validation;
    Alcotest.test_case "regression exact line" `Quick test_regression_exact_line;
    Alcotest.test_case "regression flat" `Quick test_regression_flat;
    Alcotest.test_case "regression validation" `Quick test_regression_validation;
  ]
