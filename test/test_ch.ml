(* Tests for Dht_ch.Ring (the Consistent Hashing baseline, §4.3). *)

module Ring = Dht_ch.Ring
module Space = Dht_hashspace.Space
module Rng = Dht_prng.Rng

let check = Alcotest.check
let sp = Space.create ~bits:30

let ring seed = Ring.create ~space:sp ~rng:(Rng.of_int seed) ()

let test_first_node_owns_everything () =
  let r = ring 1 in
  Ring.add_node r ~id:0 ~k:4 ();
  check Alcotest.int "four points" 4 (List.length (Ring.points r));
  check (Alcotest.float 1e-12) "quota 1" 1. (Ring.quota r ~id:0)

let test_quotas_sum_to_one () =
  let r = ring 2 in
  for i = 0 to 49 do
    Ring.add_node r ~id:i ~k:8 ()
  done;
  check (Alcotest.float 1e-9) "sum" 1. (Dht_stats.Descriptive.sum (Ring.quotas r));
  check Alcotest.int "50 nodes" 50 (Array.length (Ring.quotas r))

(* Recompute every node's quota from the raw point list and compare with the
   incrementally maintained values — the strongest consistency check. *)
let recompute_quotas r =
  let pts = Array.of_list (Ring.points r) in
  let n = Array.length pts in
  let owned = Hashtbl.create 16 in
  let add id len =
    Hashtbl.replace owned id (len + Option.value ~default:0 (Hashtbl.find_opt owned id))
  in
  Array.iteri
    (fun i (pos, id) ->
      let prev = fst pts.((i + n - 1) mod n) in
      let len =
        if n = 1 then Space.size sp
        else ((pos - prev) mod Space.size sp + Space.size sp) mod Space.size sp
      in
      add id len)
    pts;
  owned

let test_incremental_matches_recomputation () =
  let r = ring 3 in
  for i = 0 to 29 do
    Ring.add_node r ~id:i ~k:5 ();
    let owned = recompute_quotas r in
    for id = 0 to i do
      let expected =
        Space.quota sp (Option.value ~default:0 (Hashtbl.find_opt owned id))
      in
      check
        (Alcotest.float 1e-12)
        (Printf.sprintf "node %d after %d joins" id (i + 1))
        expected (Ring.quota r ~id)
    done
  done

let test_owner_agrees_with_arcs () =
  let r = ring 4 in
  for i = 0 to 9 do
    Ring.add_node r ~id:i ~k:8 ()
  done;
  (* Sample many points; the empirical ownership fraction must track the
     maintained quotas. *)
  let rng = Rng.of_int 99 in
  let hits = Array.make 10 0 in
  let trials = 40_000 in
  for _ = 1 to trials do
    let p = Rng.int rng (Space.size sp) in
    let id = Ring.owner r p in
    hits.(id) <- hits.(id) + 1
  done;
  Array.iteri
    (fun id h ->
      let observed = float_of_int h /. float_of_int trials in
      let q = Ring.quota r ~id in
      check Alcotest.bool
        (Printf.sprintf "node %d: %.4f vs %.4f" id observed q)
        true
        (abs_float (observed -. q) < 0.02))
    hits

let test_validation () =
  let r = ring 7 in
  Ring.add_node r ~id:0 ~k:4 ();
  Alcotest.check_raises "duplicate id" (Invalid_argument "Ring.add_node: duplicate node id")
    (fun () -> Ring.add_node r ~id:0 ~k:4 ());
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Ring.add_node: point count must be positive") (fun () ->
      Ring.add_node r ~id:1 ~k:0 ());
  Alcotest.check_raises "owner outside space"
    (Invalid_argument "Ring.owner: point outside space") (fun () ->
      ignore (Ring.owner r (-1)))

let test_empty_ring_owner () =
  let r = ring 8 in
  Alcotest.check_raises "empty ring" Not_found (fun () -> ignore (Ring.owner r 0))

let test_heterogeneous_points () =
  let r = ring 9 in
  Ring.add_node r ~id:0 ~k:4 ~points:64 ();
  Ring.add_node r ~id:1 ~k:4 ~points:16 ();
  check Alcotest.int "point counts" 80 (List.length (Ring.points r));
  (* More points -> larger expected quota. *)
  check Alcotest.bool "weighting works" true
    (Ring.quota r ~id:0 > Ring.quota r ~id:1)

let test_more_points_balance_better () =
  (* sigma(Qn) must drop as the per-node point count grows (the k·log N
     requirement of CH) — averaged over a few rings to avoid flakes. *)
  let avg_sigma k =
    let acc = ref 0. in
    for seed = 0 to 4 do
      let r = ring (100 + seed) in
      for i = 0 to 63 do
        Ring.add_node r ~id:i ~k ()
      done;
      acc := !acc +. Ring.sigma_qn r
    done;
    !acc /. 5.
  in
  let s1 = avg_sigma 1 and s16 = avg_sigma 16 and s64 = avg_sigma 64 in
  check Alcotest.bool (Printf.sprintf "%.1f > %.1f > %.1f" s1 s16 s64) true
    (s1 > s16 && s16 > s64)

let test_sigma_qn_edge () =
  let r = ring 10 in
  check (Alcotest.float 0.) "empty ring sigma" 0. (Ring.sigma_qn r);
  Ring.add_node r ~id:0 ~k:3 ();
  check (Alcotest.float 0.) "single node sigma" 0. (Ring.sigma_qn r)

let test_determinism () =
  let sigma seed =
    let r = ring seed in
    for i = 0 to 31 do
      Ring.add_node r ~id:i ~k:8 ()
    done;
    Ring.sigma_qn r
  in
  check (Alcotest.float 1e-12) "same seed" (sigma 55) (sigma 55)

let suite =
  [
    Alcotest.test_case "first node owns everything" `Quick
      test_first_node_owns_everything;
    Alcotest.test_case "quotas sum to 1" `Quick test_quotas_sum_to_one;
    Alcotest.test_case "incremental quota = recomputation" `Quick
      test_incremental_matches_recomputation;
    Alcotest.test_case "owner agrees with arcs" `Quick test_owner_agrees_with_arcs;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "empty ring owner" `Quick test_empty_ring_owner;
    Alcotest.test_case "heterogeneous point counts" `Quick
      test_heterogeneous_points;
    Alcotest.test_case "more points balance better" `Quick
      test_more_points_balance_better;
    Alcotest.test_case "sigma edge cases" `Quick test_sigma_qn_edge;
    Alcotest.test_case "determinism" `Quick test_determinism;
  ]
