(* Tests for Dht_core.Local_dht (the paper's contribution, §3). *)

open Dht_core
module Space = Dht_hashspace.Space
module Span = Dht_hashspace.Span
module Rng = Dht_prng.Rng

let check = Alcotest.check
let sp = Space.create ~bits:30
let vid i = Vnode_id.make ~snode:i ~vnode:0

let grow ?(pmin = 8) ?(vmin = 8) ?(seed = 42) n =
  let dht =
    Local_dht.create ~space:sp ~pmin ~vmin ~rng:(Rng.of_int seed) ~first:(vid 0) ()
  in
  for i = 1 to n - 1 do
    ignore (Local_dht.add_vnode dht ~id:(vid i))
  done;
  dht

let test_initial_state () =
  let dht = grow 1 in
  check Alcotest.int "one vnode" 1 (Local_dht.vnode_count dht);
  check Alcotest.int "one group" 1 (Local_dht.group_count dht);
  check (Alcotest.float 0.) "sigma 0" 0. (Local_dht.sigma_qv dht);
  match Local_dht.groups dht with
  | [ b ] ->
      check Alcotest.bool "group 0" true
        (Group_id.equal (Balancer.group b) Group_id.root)
  | _ -> Alcotest.fail "expected exactly group 0"

let test_audit_through_growth () =
  let dht =
    Local_dht.create ~space:sp ~pmin:8 ~vmin:4 ~rng:(Rng.of_int 7) ~first:(vid 0) ()
  in
  for i = 1 to 600 do
    ignore (Local_dht.add_vnode dht ~id:(vid i));
    match Audit.check_local dht with
    | Ok () -> ()
    | Error es ->
        Alcotest.failf "audit at V=%d:\n%s" (i + 1) (String.concat "\n" es)
  done

let test_group_count_bounds () =
  let dht = grow ~pmin:8 ~vmin:8 1000 in
  let g = Local_dht.group_count dht in
  (* Every group holds between Vmin and Vmax vnodes. *)
  check Alcotest.bool (Printf.sprintf "G=%d within [63, 125]" g) true
    (g >= 1000 / 16 && g <= 1000 / 8)

let test_single_group_until_vmax () =
  let splits = ref [] in
  let dht =
    Local_dht.create ~space:sp ~pmin:8 ~vmin:8 ~rng:(Rng.of_int 3)
      ~first:(vid 0) ~on_group_split:(fun info -> splits := info :: !splits)
      ()
  in
  for i = 1 to 15 do
    ignore (Local_dht.add_vnode dht ~id:(vid i));
    check Alcotest.int
      (Printf.sprintf "one group at V=%d" (i + 1))
      1 (Local_dht.group_count dht)
  done;
  (* The 17th vnode finds group 0 full and forces the first split. *)
  ignore (Local_dht.add_vnode dht ~id:(vid 16));
  check Alcotest.int "two groups at V=17" 2 (Local_dht.group_count dht);
  match !splits with
  | [ info ] ->
      check Alcotest.bool "split of group 0" true
        (Group_id.equal info.Local_dht.parent Group_id.root);
      check Alcotest.int "recorded at V=16" 16 info.Local_dht.at_vnodes
  | _ -> Alcotest.fail "expected exactly one split"

let test_zone1_matches_global_exactly () =
  (* While there is a single group, victim choice is irrelevant (balancing
     is group-wide), so any seed reproduces the global approach exactly. *)
  let vmax = 16 in
  let local = grow ~pmin:8 ~vmin:8 ~seed:123 vmax in
  let global = Global_dht.create ~space:sp ~pmin:8 ~first:(vid 0) () in
  for i = 1 to vmax - 1 do
    ignore (Global_dht.add_vnode global ~id:(vid i))
  done;
  check (Alcotest.float 1e-12) "sigma equal at Vmax" (Global_dht.sigma_qv global)
    (Local_dht.sigma_qv local)

let test_quotas_sum_to_one () =
  let dht = grow 300 in
  check (Alcotest.float 1e-9) "sum Qv" 1.
    (Dht_stats.Descriptive.sum (Local_dht.quotas dht));
  check (Alcotest.float 1e-9) "sum Qg" 1.
    (Dht_stats.Descriptive.sum (Local_dht.group_quotas dht))

let test_sigma_fast_path_matches_metrics () =
  (* Local_dht.sigma_qv is an allocation-free fold; it must agree with the
     reference computation over the quota array. *)
  let dht = grow 257 in
  check (Alcotest.float 1e-9) "optimized = reference"
    (Metrics.sigma_percent (Local_dht.quotas dht))
    (Local_dht.sigma_qv dht);
  check (Alcotest.float 1e-9) "group sigma reference"
    (Metrics.sigma_percent (Local_dht.group_quotas dht))
    (Local_dht.sigma_qg dht)

let test_lookup_routes_correctly () =
  let dht = grow 500 in
  let rng = Rng.of_int 11 in
  for _ = 1 to 500 do
    let p = Rng.int rng (Space.size sp) in
    let span, owner = Local_dht.lookup dht p in
    check Alcotest.bool "span covers point" true (Span.contains sp span p);
    check Alcotest.bool "owner holds span" true
      (List.exists (Span.equal span) owner.Vnode.spans)
  done

let test_victim_distribution_tracks_quota () =
  (* §3.6: a group is chosen with probability equal to its quota. *)
  let dht = grow ~seed:19 200 in
  let groups = Local_dht.groups dht in
  let quota_of =
    List.map (fun b -> (Balancer.group b, Balancer.quota b)) groups
  in
  let hits = Hashtbl.create 16 in
  let rng = Rng.of_int 100 in
  let trials = 30_000 in
  for _ = 1 to trials do
    let p = Rng.int rng (Space.size sp) in
    let _, v = Local_dht.lookup dht p in
    let g = v.Vnode.group in
    Hashtbl.replace hits g (1 + Option.value ~default:0 (Hashtbl.find_opt hits g))
  done;
  List.iter
    (fun (g, q) ->
      let observed =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt hits g))
        /. float_of_int trials
      in
      check Alcotest.bool
        (Printf.sprintf "group %s: observed %.4f vs quota %.4f"
           (Group_id.to_string g) observed q)
        true
        (abs_float (observed -. q) < 0.015))
    quota_of

let test_group_split_preserves_partitions () =
  let transfers_outside_target = ref 0 in
  let dht =
    Local_dht.create ~space:sp ~pmin:8 ~vmin:8 ~rng:(Rng.of_int 5) ~first:(vid 0)
      ~on_event:(fun _ -> ())
      ()
  in
  for i = 1 to 16 do
    ignore (Local_dht.add_vnode dht ~id:(vid i))
  done;
  ignore !transfers_outside_target;
  (* After the first split both children have Vmin or Vmin+1 vnodes and
     every vnode still holds within [Pmin, Pmax]. *)
  let sizes =
    List.map Balancer.vnode_count (Local_dht.groups dht) |> List.sort compare
  in
  check Alcotest.(list int) "8 + 9 vnodes" [ 8; 9 ] sizes;
  match Audit.check_local dht with
  | Ok () -> ()
  | Error es -> Alcotest.failf "audit: %s" (String.concat "\n" es)

let test_lpdr () =
  let dht = grow 40 in
  let groups = Local_dht.groups dht in
  List.iter
    (fun b ->
      let g = Balancer.group b in
      match Local_dht.lpdr dht g with
      | None -> Alcotest.fail "lpdr missing"
      | Some r ->
          check Alcotest.int "cardinal = Vg" (Balancer.vnode_count b)
            (List.length r);
          check Alcotest.int "total = Pg"
            (Balancer.total_partitions b)
            (List.fold_left (fun acc (_, c) -> acc + c) 0 r);
          check Alcotest.bool "sorted by vnode id" true
            (List.sort_uniq (fun (a, _) (b, _) -> Vnode_id.compare a b) r = r))
    groups;
  check Alcotest.bool "absent group" true
    (Local_dht.lpdr dht (Group_id.make ~value:0 ~bits:59) = None)

let test_gideal_formula () =
  check Alcotest.int "V=1" 1 (Metrics.gideal ~vnodes:1 ~vmax:64);
  check Alcotest.int "V=64" 1 (Metrics.gideal ~vnodes:64 ~vmax:64);
  check Alcotest.int "V=65" 2 (Metrics.gideal ~vnodes:65 ~vmax:64);
  check Alcotest.int "V=128" 2 (Metrics.gideal ~vnodes:128 ~vmax:64);
  check Alcotest.int "V=129" 4 (Metrics.gideal ~vnodes:129 ~vmax:64);
  check Alcotest.int "V=1024" 16 (Metrics.gideal ~vnodes:1024 ~vmax:64);
  Alcotest.check_raises "bad vmax" (Invalid_argument "Metrics.gideal: vmax not a power of two")
    (fun () -> ignore (Metrics.gideal ~vnodes:10 ~vmax:3))

let test_determinism () =
  let counts seed =
    let dht = grow ~seed 500 in
    (Local_dht.group_count dht, Local_dht.sigma_qv dht)
  in
  check (Alcotest.pair Alcotest.int (Alcotest.float 1e-12)) "same seed"
    (counts 77) (counts 77);
  let g1, s1 = counts 77 and g2, s2 = counts 78 in
  check Alcotest.bool "different seeds usually differ" true
    (g1 <> g2 || abs_float (s1 -. s2) > 1e-12)

let test_split_history_chains () =
  let splits = ref [] in
  let dht =
    Local_dht.create ~space:sp ~pmin:8 ~vmin:8 ~rng:(Rng.of_int 42)
      ~first:(vid 0) ~on_group_split:(fun info -> splits := info :: !splits)
      ()
  in
  for i = 1 to 599 do
    ignore (Local_dht.add_vnode dht ~id:(vid i))
  done;
  let splits = !splits in
  check Alcotest.bool "many splits happened" true (List.length splits > 10);
  List.iter
    (fun info ->
      let p = info.Local_dht.parent in
      let l = info.Local_dht.left and r = info.Local_dht.right in
      check Alcotest.int "left extends parent" (Group_id.bits p + 1) (Group_id.bits l);
      check Alcotest.int "left keeps value" (Group_id.value p) (Group_id.value l);
      check Alcotest.int "right sets the new msb"
        (Group_id.value p lor (1 lsl Group_id.bits p))
        (Group_id.value r))
    splits

let prop_invariants_random_seeds =
  QCheck.Test.make ~name:"audit passes for random seeds and sizes" ~count:25
    QCheck.(pair small_int (int_range 2 300))
    (fun (seed, n) ->
      let dht = grow ~pmin:8 ~vmin:4 ~seed n in
      match Audit.check_local dht with
      | Ok () -> true
      | Error es -> QCheck.Test.fail_reportf "%s" (String.concat "\n" es))

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "audit through 600 creations" `Quick
      test_audit_through_growth;
    Alcotest.test_case "group count bounds" `Quick test_group_count_bounds;
    Alcotest.test_case "single group until Vmax (L2 exception)" `Quick
      test_single_group_until_vmax;
    Alcotest.test_case "zone 1 equals global exactly" `Quick
      test_zone1_matches_global_exactly;
    Alcotest.test_case "quotas sum to 1" `Quick test_quotas_sum_to_one;
    Alcotest.test_case "sigma fast path = reference" `Quick
      test_sigma_fast_path_matches_metrics;
    Alcotest.test_case "lookup routes correctly" `Quick
      test_lookup_routes_correctly;
    Alcotest.test_case "victim distribution tracks quota" `Quick
      test_victim_distribution_tracks_quota;
    Alcotest.test_case "group split preserves partitions" `Quick
      test_group_split_preserves_partitions;
    Alcotest.test_case "lpdr snapshots" `Quick test_lpdr;
    Alcotest.test_case "gideal formula (figure 7)" `Quick test_gideal_formula;
    Alcotest.test_case "determinism per seed" `Quick test_determinism;
    Alcotest.test_case "split history chains ids" `Quick
      test_split_history_chains;
    QCheck_alcotest.to_alcotest prop_invariants_random_seeds;
  ]
