(* Tests for Dht_registry.Registry (multi-DHT coexistence, §6) and the
   coexist experiment. *)

open Dht_core
module Registry = Dht_registry.Registry
module Topology = Dht_cluster.Topology
module Profile = Dht_cluster.Profile
module Extensions = Dht_experiments.Extensions

let check = Alcotest.check

let make_registry ?(n = 8) ?(seed = 1) () =
  Registry.create
    ~cluster:{ Topology.nodes = Array.make n Profile.reference }
    ~seed ()

(* Live vnodes per cluster node for the named DHT: a vnode's canonical
   name carries the node that hosts it. *)
let enrollment reg ~name =
  let counts = Array.make (Topology.size (Registry.cluster reg)) 0 in
  Array.iter
    (fun v ->
      let node = v.Vnode.id.Vnode_id.snode in
      counts.(node) <- counts.(node) + 1)
    (Local_dht.vnodes (Registry.dht reg ~name));
  counts

let test_add_dht_enrollment () =
  let reg = make_registry () in
  Registry.add_dht reg ~name:"a" ~pmin:8 ~vmin:8 ~total_vnodes:64;
  let e = enrollment reg ~name:"a" in
  check Alcotest.int "total" 64 (Array.fold_left ( + ) 0 e);
  Array.iter (fun c -> check Alcotest.int "even on homogeneous" 8 c) e;
  check Alcotest.int "64 vnodes live" 64
    (Local_dht.vnode_count (Registry.dht reg ~name:"a"));
  match Audit.check_local (Registry.dht reg ~name:"a") with
  | Ok () -> ()
  | Error es -> Alcotest.failf "audit: %s" (String.concat "\n" es)

let test_two_dhts_independent () =
  let reg = make_registry () in
  Registry.add_dht reg ~name:"a" ~pmin:8 ~vmin:8 ~total_vnodes:32;
  Registry.add_dht reg ~name:"b" ~pmin:16 ~vmin:4 ~total_vnodes:16;
  check Alcotest.int "a count" 32 (Local_dht.vnode_count (Registry.dht reg ~name:"a"));
  check Alcotest.int "b count" 16 (Local_dht.vnode_count (Registry.dht reg ~name:"b"));
  (* Each DHT individually covers its whole hash range. *)
  List.iter
    (fun name ->
      match Audit.check_local (Registry.dht reg ~name) with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s audit: %s" name (String.concat "\n" es))
    [ "a"; "b" ]

let test_name_collision () =
  let reg = make_registry () in
  Registry.add_dht reg ~name:"a" ~pmin:8 ~vmin:8 ~total_vnodes:16;
  Alcotest.check_raises "duplicate name" (Invalid_argument "Registry.add_dht: name taken")
    (fun () -> Registry.add_dht reg ~name:"a" ~pmin:8 ~vmin:8 ~total_vnodes:16)

let test_external_load_validation () =
  let reg = make_registry () in
  Alcotest.check_raises "load 1.0"
    (Invalid_argument "Registry.set_external_load: fraction outside [0, 1)")
    (fun () -> Registry.set_external_load reg ~node:0 1.0)

let test_effective_shares () =
  let reg = make_registry ~n:4 () in
  Registry.set_external_load reg ~node:0 0.5;
  (* Node 0 retains 0.5 capacity of 3.5 total, so a DHT of 70 vnodes
     enrolls it for 70 × 0.5/3.5 = 10 and every idle node for 20. *)
  Registry.add_dht reg ~name:"a" ~pmin:8 ~vmin:8 ~total_vnodes:70;
  let e = enrollment reg ~name:"a" in
  check Alcotest.int "sum" 70 (Array.fold_left ( + ) 0 e);
  check Alcotest.int "loaded node share" 10 e.(0);
  check Alcotest.int "idle node share" 20 e.(1)

let test_retarget_shifts_enrollment () =
  let reg = make_registry () in
  Registry.add_dht reg ~name:"a" ~pmin:8 ~vmin:8 ~total_vnodes:64;
  let before_err = Registry.tracking_error reg ~name:"a" in
  Registry.set_external_load reg ~node:0 0.75;
  Registry.set_external_load reg ~node:1 0.75;
  let disturbed = Registry.tracking_error reg ~name:"a" in
  check Alcotest.bool "load disturbs tracking" true (disturbed > before_err);
  let r = Registry.retarget reg ~name:"a" ~total_vnodes:64 in
  check Alcotest.bool "vnodes moved" true (r.Registry.added > 0);
  let e = enrollment reg ~name:"a" in
  check Alcotest.bool "loaded nodes hold fewer vnodes" true
    (e.(0) < e.(2) && e.(1) < e.(2));
  let after = Registry.tracking_error reg ~name:"a" in
  check Alcotest.bool
    (Printf.sprintf "tracking restored: %.3f -> %.3f" disturbed after)
    true (after < disturbed);
  (* The DHT stayed invariant-clean through growth and removals. *)
  match Audit.check_local (Registry.dht reg ~name:"a") with
  | Ok () -> ()
  | Error es -> Alcotest.failf "audit: %s" (String.concat "\n" es)

let test_retarget_bookkeeping () =
  let reg = make_registry () in
  Registry.add_dht reg ~name:"a" ~pmin:8 ~vmin:8 ~total_vnodes:64;
  Registry.set_external_load reg ~node:0 0.9;
  let r = Registry.retarget reg ~name:"a" ~total_vnodes:64 in
  (* The report's counters account for every live vnode (blocked removals
     are not counted as removed). *)
  check Alcotest.int "delta consistent"
    (64 + r.Registry.added - r.Registry.removed)
    (Local_dht.vnode_count (Registry.dht reg ~name:"a"))

let test_unknown_name () =
  let reg = make_registry () in
  Alcotest.check_raises "dht" Not_found (fun () ->
      ignore (Registry.dht reg ~name:"nope"));
  Alcotest.check_raises "retarget" Not_found (fun () ->
      ignore (Registry.retarget reg ~name:"nope" ~total_vnodes:8))

let test_coexist_experiment () =
  let r = Extensions.coexist ~seed:5 () in
  check Alcotest.int "two dhts" 2 (List.length r.Extensions.dht_names);
  List.iteri
    (fun i _ ->
      let before = List.nth r.Extensions.error_before i in
      let loaded = List.nth r.Extensions.error_after_load i in
      let final = List.nth r.Extensions.error_after_retarget i in
      check Alcotest.bool "load disturbs" true (loaded > before);
      check Alcotest.bool
        (Printf.sprintf "retarget recovers: %.3f -> %.3f" loaded final)
        true (final < loaded))
    r.Extensions.dht_names;
  check Alcotest.bool "movement happened" true (r.Extensions.coexist_added > 0)

let suite =
  [
    Alcotest.test_case "add_dht enrollment" `Quick test_add_dht_enrollment;
    Alcotest.test_case "two independent DHTs" `Quick test_two_dhts_independent;
    Alcotest.test_case "name collision" `Quick test_name_collision;
    Alcotest.test_case "external load validation" `Quick
      test_external_load_validation;
    Alcotest.test_case "effective shares" `Quick test_effective_shares;
    Alcotest.test_case "retarget shifts enrollment" `Quick
      test_retarget_shifts_enrollment;
    Alcotest.test_case "retarget bookkeeping" `Quick test_retarget_bookkeeping;
    Alcotest.test_case "unknown name" `Quick test_unknown_name;
    Alcotest.test_case "coexist experiment" `Quick test_coexist_experiment;
  ]
