(* Tests for Dht_core.Metrics. *)

open Dht_core

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let test_sigma_percent_known () =
  checkf "perfect balance" 0. (Metrics.sigma_percent [| 0.25; 0.25; 0.25; 0.25 |]);
  (* Quotas 2/3 and 1/3 against ideal 1/2: sigma = (1/6)/(1/2) = 33.33%. *)
  checkf "two-thirds split" (100. /. 3.)
    (Metrics.sigma_percent [| 2. /. 3.; 1. /. 3. |]);
  checkf "singleton" 0. (Metrics.sigma_percent [| 1. |]);
  checkf "empty" 0. (Metrics.sigma_percent [||])

let test_sigma_counts_vs_quotas () =
  (* When quotas are proportional to counts the two metrics coincide
     (the global-approach equivalence of §2.4). *)
  let counts = [| 40; 41; 41; 40; 41 |] in
  let total = Array.fold_left ( + ) 0 counts in
  let quotas = Array.map (fun c -> float_of_int c /. float_of_int total) counts in
  checkf "consistent" (Metrics.sigma_percent quotas)
    (Metrics.sigma_counts_percent counts)

let test_sigma_counts_edge () =
  checkf "uniform counts" 0. (Metrics.sigma_counts_percent [| 7; 7; 7 |]);
  checkf "single" 0. (Metrics.sigma_counts_percent [| 3 |])

let test_gideal_validation () =
  Alcotest.check_raises "vnodes 0" (Invalid_argument "Metrics.gideal: vnodes < 1")
    (fun () -> ignore (Metrics.gideal ~vnodes:0 ~vmax:16));
  check Alcotest.int "just above vmax doubles" 2 (Metrics.gideal ~vnodes:17 ~vmax:16);
  check Alcotest.int "power-of-two ladder" 8 (Metrics.gideal ~vnodes:100 ~vmax:16)

let suite =
  [
    Alcotest.test_case "sigma_percent known values" `Quick test_sigma_percent_known;
    Alcotest.test_case "sigma over counts = sigma over quotas" `Quick
      test_sigma_counts_vs_quotas;
    Alcotest.test_case "sigma counts edge cases" `Quick test_sigma_counts_edge;
    Alcotest.test_case "gideal validation" `Quick test_gideal_validation;
  ]
