(* Tests for dynamic leave (Balancer.remove_vnode, Global_dht.remove_vnode,
   Local_dht.remove_vnode). *)

open Dht_core
module Space = Dht_hashspace.Space
module Span = Dht_hashspace.Span
module Point_map = Dht_hashspace.Point_map
module Coverage = Dht_hashspace.Coverage
module Rng = Dht_prng.Rng

let check = Alcotest.check
let sp = Space.create ~bits:30
let vid i = Vnode_id.make ~snode:i ~vnode:0

(* --- Global removal --- *)

let grow_global n =
  let dht = Global_dht.create ~space:sp ~pmin:8 ~first:(vid 0) () in
  for i = 1 to n - 1 do
    ignore (Global_dht.add_vnode dht ~id:(vid i))
  done;
  dht

let test_remove_then_audit () =
  let dht = grow_global 50 in
  (match Global_dht.remove_vnode dht ~id:(vid 17) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "removal refused");
  check Alcotest.int "one fewer" 49
    (Balancer.vnode_count (Global_dht.balancer dht));
  check Alcotest.bool "vnode gone" false
    (Array.exists (fun v -> v.Vnode.id = vid 17) (Global_dht.vnodes dht));
  match Audit.check_global dht with
  | Ok () -> ()
  | Error es -> Alcotest.failf "audit: %s" (String.concat "\n" es)

let test_remove_equalizes () =
  let dht = grow_global 50 in
  ignore (Global_dht.remove_vnode dht ~id:(vid 3));
  let counts = Balancer.counts (Global_dht.balancer dht) in
  let mn = Array.fold_left min max_int counts in
  let mx = Array.fold_left max 0 counts in
  check Alcotest.bool "spread <= 1 after removal" true (mx - mn <= 1);
  check (Alcotest.float 1e-9) "quotas still sum to 1" 1.
    (Dht_stats.Descriptive.sum (Global_dht.quotas dht))

let test_remove_back_to_power_of_two () =
  (* 65 -> 64: a power-of-two population must be perfectly balanced
     (removal-tolerant G5: all counts equal). *)
  let dht = grow_global 65 in
  ignore (Global_dht.remove_vnode dht ~id:(vid 64));
  let counts = Balancer.counts (Global_dht.balancer dht) in
  Array.iter (fun c -> check Alcotest.int "all equal" counts.(0) c) counts;
  check (Alcotest.float 1e-9) "sigma back to 0" 0. (Global_dht.sigma_qv dht)

let test_remove_unknown_raises () =
  let dht = grow_global 4 in
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Global_dht.remove_vnode: unknown vnode id") (fun () ->
      ignore (Global_dht.remove_vnode dht ~id:(vid 99)))

let test_remove_last_vnode_blocked () =
  let dht = grow_global 1 in
  match Global_dht.remove_vnode dht ~id:(vid 0) with
  | Error `Last_vnode -> ()
  | Ok () | Error `Insufficient_capacity -> Alcotest.fail "expected Last_vnode"

let test_remove_join_leave_storm () =
  (* Interleaved joins and leaves preserve every invariant. *)
  let dht = grow_global 16 in
  let rng = Rng.of_int 9 in
  let live = ref (List.init 16 (fun i -> i)) in
  let next = ref 16 in
  for step = 0 to 199 do
    if Rng.bool rng && List.length !live > 2 then begin
      let arr = Array.of_list !live in
      let target = arr.(Rng.int rng (Array.length arr)) in
      match Global_dht.remove_vnode dht ~id:(vid target) with
      | Ok () -> live := List.filter (fun i -> i <> target) !live
      | Error _ -> ()
    end
    else begin
      ignore (Global_dht.add_vnode dht ~id:(vid !next));
      live := !next :: !live;
      incr next
    end;
    if step mod 20 = 0 then
      match Audit.check_global dht with
      | Ok () -> ()
      | Error es -> Alcotest.failf "step %d: %s" step (String.concat "\n" es)
  done;
  match Audit.check_global dht with
  | Ok () -> ()
  | Error es -> Alcotest.failf "final: %s" (String.concat "\n" es)

let test_removal_events_migrate_ownership () =
  let transfers = ref [] in
  let dht =
    Global_dht.create ~space:sp
      ~on_event:(function
        | Balancer.Transfer { src; dst; span } -> transfers := (src, dst, span) :: !transfers
        | Balancer.Split _ -> ())
      ~pmin:8 ~first:(vid 0) ()
  in
  for i = 1 to 7 do
    ignore (Global_dht.add_vnode dht ~id:(vid i))
  done;
  transfers := [];
  ignore (Global_dht.remove_vnode dht ~id:(vid 2));
  check Alcotest.bool "transfers fired" true (List.length !transfers > 0);
  List.iter
    (fun (_, dst, span) ->
      (* Every transferred span must now be routed to its new owner. *)
      let span', owner =
        Point_map.find_point (Global_dht.map dht) (Span.start sp span)
      in
      if Span.equal span span' then
        check Alcotest.bool "routing updated" true (owner == dst))
    !transfers

(* --- Local removal --- *)

let grow_local ?(pmin = 8) ?(vmin = 8) ?(seed = 5) n =
  let dht =
    Local_dht.create ~space:sp ~pmin ~vmin ~rng:(Rng.of_int seed) ~first:(vid 0) ()
  in
  for i = 1 to n - 1 do
    ignore (Local_dht.add_vnode dht ~id:(vid i))
  done;
  dht

let removal_error = function
  | Local_dht.Last_vnode -> "the DHT cannot become empty"
  | Local_dht.Group_at_minimum g ->
      Format.asprintf "group %a is at Vmin" Group_id.pp g
  | Local_dht.Group_capacity g ->
      Format.asprintf "group %a cannot absorb the partitions" Group_id.pp g

let test_local_remove_ok () =
  let dht = grow_local 200 in
  (* Find a vnode whose group is above Vmin so removal is admissible. *)
  let target =
    List.find_map
      (fun b ->
        if Balancer.vnode_count b > 8 then Some (Balancer.vnodes b).(0) else None)
      (Local_dht.groups dht)
  in
  match target with
  | None -> Alcotest.fail "no group above Vmin"
  | Some v -> (
      (match Local_dht.remove_vnode dht ~id:v.Vnode.id with
      | Ok () -> ()
      | Error e -> Alcotest.failf "refused: %s" (removal_error e));
      check Alcotest.int "count down" 199 (Local_dht.vnode_count dht);
      match Audit.check_local dht with
      | Ok () -> ()
      | Error es -> Alcotest.failf "audit: %s" (String.concat "\n" es))

let test_local_remove_group_floor () =
  (* Grow to exactly Vmax + 1 = 17: group 0 splits into two groups of 8, the
     newcomer joins one of them, leaving the other at exactly Vmin. *)
  let dht = grow_local ~pmin:8 ~vmin:8 17 in
  let floor_group =
    List.find_opt (fun b -> Balancer.vnode_count b = 8) (Local_dht.groups dht)
  in
  match floor_group with
  | None -> Alcotest.fail "expected a group at Vmin after the first split"
  | Some b -> (
      let v = (Balancer.vnodes b).(0) in
      match Local_dht.remove_vnode dht ~id:v.Vnode.id with
      | Error (Local_dht.Group_at_minimum g) ->
          check Alcotest.bool "right group" true (Group_id.equal g (Balancer.group b))
      | Ok () -> Alcotest.fail "L2 floor not enforced"
      | Error e -> Alcotest.failf "wrong error: %s" (removal_error e))

let test_local_remove_sole_group_exception () =
  (* While group 0 is alone it may shrink below Vmin (the L2 exception). *)
  let dht = grow_local ~vmin:8 6 in
  (match Local_dht.remove_vnode dht ~id:(vid 3) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "refused: %s" (removal_error e));
  check Alcotest.int "five left" 5 (Local_dht.vnode_count dht);
  match Audit.check_local dht with
  | Ok () -> ()
  | Error es -> Alcotest.failf "audit: %s" (String.concat "\n" es)

let test_local_churn_storm () =
  let dht = grow_local ~pmin:8 ~vmin:4 300 in
  let rng = Rng.of_int 77 in
  let live = ref (List.init 300 (fun i -> i)) in
  let next = ref 300 in
  for step = 0 to 299 do
    if Rng.float rng < 0.5 && List.length !live > 2 then begin
      let arr = Array.of_list !live in
      let target = arr.(Rng.int rng (Array.length arr)) in
      match Local_dht.remove_vnode dht ~id:(vid target) with
      | Ok () -> live := List.filter (fun i -> i <> target) !live
      | Error (Local_dht.Group_at_minimum _ | Local_dht.Group_capacity _
              | Local_dht.Last_vnode) ->
          ()
    end
    else begin
      ignore (Local_dht.add_vnode dht ~id:(vid !next));
      live := !next :: !live;
      incr next
    end;
    if step mod 30 = 0 then
      match Audit.check_local dht with
      | Ok () -> ()
      | Error es -> Alcotest.failf "step %d: %s" step (String.concat "\n" es)
  done;
  match Audit.check_local dht with
  | Ok () -> ()
  | Error es -> Alcotest.failf "final: %s" (String.concat "\n" es)

let test_duplicate_id_rejected () =
  let dht = grow_local 4 in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Local_dht: duplicate vnode id") (fun () ->
      ignore (Local_dht.add_vnode dht ~id:(vid 2)));
  let g = grow_global 4 in
  Alcotest.check_raises "duplicate global"
    (Invalid_argument "Global_dht: duplicate vnode id") (fun () ->
      ignore (Global_dht.add_vnode g ~id:(vid 2)))

let test_find_vnode () =
  let dht = grow_local 10 in
  (match Local_dht.find_vnode dht (vid 4) with
  | Some v -> check Alcotest.bool "right id" true (Vnode_id.equal v.Vnode.id (vid 4))
  | None -> Alcotest.fail "missing");
  check Alcotest.bool "absent" true (Local_dht.find_vnode dht (vid 400) = None)

let suite =
  [
    Alcotest.test_case "global: remove then audit" `Quick test_remove_then_audit;
    Alcotest.test_case "global: removal equalizes" `Quick test_remove_equalizes;
    Alcotest.test_case "global: perfect balance at power of two" `Quick
      test_remove_back_to_power_of_two;
    Alcotest.test_case "global: unknown id raises" `Quick
      test_remove_unknown_raises;
    Alcotest.test_case "global: last vnode blocked" `Quick
      test_remove_last_vnode_blocked;
    Alcotest.test_case "global: join/leave storm" `Quick
      test_remove_join_leave_storm;
    Alcotest.test_case "global: removal keeps routing consistent" `Quick
      test_removal_events_migrate_ownership;
    Alcotest.test_case "local: remove from large group" `Quick
      test_local_remove_ok;
    Alcotest.test_case "local: L2 floor enforced" `Quick
      test_local_remove_group_floor;
    Alcotest.test_case "local: sole-group exception" `Quick
      test_local_remove_sole_group_exception;
    Alcotest.test_case "local: churn storm audits clean" `Quick
      test_local_churn_storm;
    Alcotest.test_case "duplicate ids rejected" `Quick test_duplicate_id_rejected;
    Alcotest.test_case "find_vnode" `Quick test_find_vnode;
  ]
