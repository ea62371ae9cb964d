(* Tests for Dht_core.Global_dht (the base model, §2). *)

open Dht_core
module Space = Dht_hashspace.Space
module Span = Dht_hashspace.Span
module Rng = Dht_prng.Rng

let check = Alcotest.check
let sp = Space.create ~bits:30
let vid i = Vnode_id.make ~snode:i ~vnode:0

let grow ?(pmin = 32) n =
  let dht = Global_dht.create ~space:sp ~pmin ~first:(vid 0) () in
  for i = 1 to n - 1 do
    ignore (Global_dht.add_vnode dht ~id:(vid i))
  done;
  dht

let test_sigma_equivalence () =
  (* §2.4: in the global approach sigma(Qv) = sigma(Pv). *)
  let dht = Global_dht.create ~space:sp ~pmin:32 ~first:(vid 0) () in
  for i = 1 to 150 do
    ignore (Global_dht.add_vnode dht ~id:(vid i));
    check
      (Alcotest.float 1e-9)
      (Printf.sprintf "sigma(Qv) = sigma(Pv) at V=%d" (i + 1))
      (Global_dht.sigma_pv dht) (Global_dht.sigma_qv dht)
  done

let test_audit_through_growth () =
  let dht = Global_dht.create ~space:sp ~pmin:8 ~first:(vid 0) () in
  for i = 1 to 300 do
    ignore (Global_dht.add_vnode dht ~id:(vid i));
    match Audit.check_global dht with
    | Ok () -> ()
    | Error es ->
        Alcotest.failf "audit at V=%d:\n%s" (i + 1) (String.concat "\n" es)
  done

let test_quotas_sum_to_one () =
  let dht = grow 100 in
  let total = Dht_stats.Descriptive.sum (Global_dht.quotas dht) in
  check (Alcotest.float 1e-9) "sum Qv" 1. total

let test_perfect_balance_at_powers_of_two () =
  let dht = grow 256 in
  check Alcotest.int "V" 256 (Global_dht.vnode_count dht);
  Array.iter (fun c -> check Alcotest.int "Pmin each" 32 c) (Global_dht.counts dht);
  check (Alcotest.float 1e-9) "sigma 0" 0. (Global_dht.sigma_qv dht)

let test_lookup_routes_correctly () =
  let dht = grow 77 in
  let rng = Rng.of_int 5 in
  for _ = 1 to 500 do
    let p = Rng.int rng (Space.size sp) in
    let span, owner = Global_dht.lookup dht p in
    check Alcotest.bool "span covers point" true (Span.contains sp span p);
    check Alcotest.bool "owner holds span" true
      (List.exists (Span.equal span) owner.Vnode.spans)
  done

let test_lookup_rejects_outside () =
  let dht = grow 3 in
  Alcotest.check_raises "outside space"
    (Invalid_argument "Point_map.find_point: point outside space") (fun () ->
      ignore (Global_dht.lookup dht (-1)))

let test_gpdr () =
  let dht = grow 10 in
  let gpdr = Global_dht.gpdr dht in
  check Alcotest.int "one entry per vnode" 10 (List.length gpdr);
  check Alcotest.(list int) "counts, in vnode-id order"
    (Array.to_list (Global_dht.counts dht))
    (List.map snd gpdr);
  check Alcotest.bool "sorted by vnode id" true
    (List.sort_uniq (fun (a, _) (b, _) -> Vnode_id.compare a b) gpdr = gpdr);
  check Alcotest.bool "ids are the live vnodes" true
    (List.map fst gpdr
    = Array.to_list (Array.map (fun v -> v.Vnode.id) (Global_dht.vnodes dht)))

let test_on_event_observes_transfers () =
  let transfers = ref 0 and splits = ref 0 in
  let on_event = function
    | Balancer.Transfer _ -> incr transfers
    | Balancer.Split _ -> incr splits
  in
  let dht = Global_dht.create ~space:sp ~on_event ~pmin:8 ~first:(vid 0) () in
  ignore (Global_dht.add_vnode dht ~id:(vid 1));
  check Alcotest.int "splits on first doubling" 8 !splits;
  check Alcotest.int "transfers to newcomer" 8 !transfers

let test_level_growth () =
  (* Level starts at log2 pmin and increases by one at each doubling. *)
  let dht = Global_dht.create ~space:sp ~pmin:8 ~first:(vid 0) () in
  check Alcotest.int "initial level" 3 (Global_dht.level dht);
  for i = 1 to 16 do
    ignore (Global_dht.add_vnode dht ~id:(vid i))
  done;
  (* V=17: doublings happened when V was 1, 2, 4, 8 and 16 -> level 8. *)
  check Alcotest.int "level after 5 doublings" 8 (Global_dht.level dht)

let test_matches_paper_formula () =
  (* With V vnodes and P = 2^l partitions, counts are floor/ceil of P/V;
     sigma is computable in closed form. Cross-check at V=100, pmin=32. *)
  let dht = grow 100 in
  let p = Array.fold_left ( + ) 0 (Global_dht.counts dht) in
  check Alcotest.int "P = 4096" 4096 p;
  let lo = p / 100 and n_hi = p mod 100 in
  let mean = float_of_int p /. 100. in
  let dev_lo = mean -. float_of_int lo and dev_hi = float_of_int (lo + 1) -. mean in
  let expected =
    100.
    *. sqrt
         (((float_of_int (100 - n_hi) *. dev_lo *. dev_lo)
          +. (float_of_int n_hi *. dev_hi *. dev_hi))
         /. 100.)
    /. mean
  in
  check (Alcotest.float 1e-6) "closed-form sigma" expected (Global_dht.sigma_qv dht)

let suite =
  [
    Alcotest.test_case "sigma(Qv) = sigma(Pv) (paper 2.4)" `Quick
      test_sigma_equivalence;
    Alcotest.test_case "audit through growth" `Quick test_audit_through_growth;
    Alcotest.test_case "quotas sum to 1" `Quick test_quotas_sum_to_one;
    Alcotest.test_case "perfect balance at powers of two" `Quick
      test_perfect_balance_at_powers_of_two;
    Alcotest.test_case "lookup routes correctly" `Quick
      test_lookup_routes_correctly;
    Alcotest.test_case "lookup rejects outside points" `Quick
      test_lookup_rejects_outside;
    Alcotest.test_case "gpdr snapshot" `Quick test_gpdr;
    Alcotest.test_case "on_event observes balancing" `Quick
      test_on_event_observes_transfers;
    Alcotest.test_case "split level growth" `Quick test_level_growth;
    Alcotest.test_case "closed-form sigma cross-check" `Quick
      test_matches_paper_formula;
  ]
