(* Tests for Dht_core.Balancer: the per-group creation algorithm and its
   invariants (G2-G5 / G2'-G5'). *)

open Dht_core
module Space = Dht_hashspace.Space
module Span = Dht_hashspace.Span
module Coverage = Dht_hashspace.Coverage

let check = Alcotest.check
let sp = Space.create ~bits:30
let vid i = Vnode_id.make ~snode:i ~vnode:0

let make_global ?(pmin = 8) () =
  let params = Params.global ~space:sp ~pmin () in
  let vnode = Vnode.make ~id:(vid 0) ~group:Group_id.root in
  let b =
    Balancer.bootstrap ~params ~group:Group_id.root ~vnode ~notify:(fun _ -> ())
  in
  (params, b)

let all_spans b =
  Array.to_list (Balancer.vnodes b)
  |> List.concat_map (fun v -> v.Vnode.spans)

let test_bootstrap () =
  let _, b = make_global ~pmin:8 () in
  check Alcotest.int "one vnode" 1 (Balancer.vnode_count b);
  check Alcotest.int "level log2 pmin" 3 (Balancer.level b);
  check Alcotest.int "pmin partitions" 8 (Balancer.total_partitions b);
  check (Alcotest.float 1e-12) "group quota 1" 1. (Balancer.quota b);
  (match Coverage.check sp (all_spans b) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "coverage: %a" Coverage.pp_error e);
  let v = (Balancer.vnodes b).(0) in
  check Alcotest.int "first vnode holds all" 8 v.Vnode.count

let test_bootstrap_rejects_nonempty () =
  let params = Params.global ~space:sp ~pmin:8 () in
  let vnode = Vnode.make ~id:(vid 0) ~group:Group_id.root in
  Vnode.add_span vnode Span.root;
  Alcotest.check_raises "non-empty vnode"
    (Invalid_argument "Balancer.bootstrap: vnode already owns partitions")
    (fun () ->
      ignore
        (Balancer.bootstrap ~params ~group:Group_id.root ~vnode
           ~notify:(fun _ -> ())))

let test_invariants_through_growth () =
  let params, b = make_global ~pmin:8 () in
  let pmin = params.Params.pmin and pmax = Params.pmax params in
  for i = 1 to 199 do
    Balancer.add_vnode b (Vnode.make ~id:(vid i) ~group:Group_id.root);
    let counts = Balancer.counts b in
    let total = Array.fold_left ( + ) 0 counts in
    (* G2: total is a power of two. *)
    check Alcotest.bool
      (Printf.sprintf "G2 at V=%d" (i + 1))
      true
      (Params.is_power_of_two total);
    check Alcotest.int "total bookkeeping" total (Balancer.total_partitions b);
    (* G4: all counts within [Pmin, Pmax]. *)
    Array.iter
      (fun c ->
        check Alcotest.bool
          (Printf.sprintf "G4 at V=%d (count %d)" (i + 1) c)
          true
          (c >= pmin && c <= pmax))
      counts;
    (* G5: V a power of two -> all counts = Pmin. *)
    if Params.is_power_of_two (i + 1) then
      Array.iter
        (fun c -> check Alcotest.int (Printf.sprintf "G5 at V=%d" (i + 1)) pmin c)
        counts
  done

let test_greedy_equalizes () =
  (* After every creation, max - min <= 1: the greedy victim selection
     cannot leave a gap of 2 (it would still decrease sigma). *)
  let _, b = make_global ~pmin:16 () in
  for i = 1 to 100 do
    Balancer.add_vnode b (Vnode.make ~id:(vid i) ~group:Group_id.root);
    let counts = Balancer.counts b in
    let mn = Array.fold_left min max_int counts in
    let mx = Array.fold_left max 0 counts in
    check Alcotest.bool (Printf.sprintf "V=%d spread <= 1" (i + 1)) true (mx - mn <= 1)
  done

let test_coverage_through_growth () =
  let _, b = make_global ~pmin:8 () in
  for i = 1 to 40 do
    Balancer.add_vnode b (Vnode.make ~id:(vid i) ~group:Group_id.root);
    match Coverage.check sp (all_spans b) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "V=%d coverage: %a" (i + 1) Coverage.pp_error e
  done

let test_add_rejects_nonempty () =
  let _, b = make_global () in
  let v = Vnode.make ~id:(vid 1) ~group:Group_id.root in
  Vnode.add_span v (Span.make sp ~level:3 ~index:0);
  Alcotest.check_raises "non-empty newcomer"
    (Invalid_argument "Balancer.add_vnode: vnode already owns partitions")
    (fun () -> Balancer.add_vnode b v)

let test_events_stream () =
  let events = ref [] in
  let params = Params.global ~space:sp ~pmin:8 () in
  let vnode = Vnode.make ~id:(vid 0) ~group:Group_id.root in
  let b =
    Balancer.bootstrap ~params ~group:Group_id.root ~vnode ~notify:(fun e ->
        events := e :: !events)
  in
  Balancer.add_vnode b (Vnode.make ~id:(vid 1) ~group:Group_id.root);
  let splits, transfers =
    List.partition (function Balancer.Split _ -> true | _ -> false) !events
  in
  (* V=1 -> all at pmin -> split-all fires: 8 splits; then the newcomer
     receives exactly 8 of the 16 halves. *)
  check Alcotest.int "8 splits" 8 (List.length splits);
  check Alcotest.int "8 transfers" 8 (List.length transfers);
  List.iter
    (function
      | Balancer.Transfer { dst; _ } ->
          check Alcotest.bool "dst is the newcomer" true
            (Vnode_id.equal dst.Vnode.id (vid 1))
      | Balancer.Split _ -> ())
    transfers

let test_of_vnodes_validation () =
  let params = Params.make ~space:sp ~pmin:8 ~vmin:4 () in
  Alcotest.check_raises "empty" (Invalid_argument "Balancer.of_vnodes: no vnodes")
    (fun () ->
      ignore
        (Balancer.of_vnodes ~params ~group:Group_id.root ~level:3
           ~notify:(fun _ -> ())
           [||]));
  let poor = Vnode.make ~id:(vid 0) ~group:Group_id.root in
  Vnode.add_span poor (Span.make sp ~level:3 ~index:0);
  Alcotest.check_raises "count below pmin"
    (Invalid_argument "Balancer.of_vnodes: vnode count outside [Pmin, Pmax]")
    (fun () ->
      ignore
        (Balancer.of_vnodes ~params ~group:Group_id.root ~level:3
           ~notify:(fun _ -> ())
           [| poor |]))

let test_of_vnodes_adopts () =
  let params = Params.make ~space:sp ~pmin:4 ~vmin:2 () in
  let g = Group_id.make ~value:1 ~bits:1 in
  let mk i offset =
    let v = Vnode.make ~id:(vid i) ~group:Group_id.root in
    for j = 0 to 3 do
      Vnode.add_span v (Span.make sp ~level:3 ~index:(offset + j))
    done;
    v
  in
  let a = mk 0 0 and b = mk 1 4 in
  let bal =
    Balancer.of_vnodes ~params ~group:g ~level:3 ~notify:(fun _ -> ()) [| a; b |]
  in
  check Alcotest.int "two vnodes" 2 (Balancer.vnode_count bal);
  check Alcotest.int "total 8" 8 (Balancer.total_partitions bal);
  check Alcotest.bool "group field updated" true (Group_id.equal a.Vnode.group g);
  check (Alcotest.float 1e-12) "group quota 1" 1. (Balancer.quota bal)

(* Population standard deviation of partition counts, recomputed
   literally. *)
let float_sigma counts =
  let xs = Array.map float_of_int counts in
  let n = float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0. xs /. n in
  sqrt (Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. n)

let test_move_decreases_sigma_matches_float () =
  (* The integer predicate must agree with literally recomputing sigma. *)
  let cases =
    [ ([| 5; 5; 0 |], 0, 2); ([| 4; 3; 3 |], 0, 1); ([| 6; 2 |], 0, 1);
      ([| 3; 3 |], 0, 1); ([| 4; 2 |], 0, 1); ([| 10; 9; 0 |], 0, 2) ]
  in
  List.iter
    (fun (counts, src, dst) ->
      let before = float_sigma counts in
      let after = Array.copy counts in
      after.(src) <- after.(src) - 1;
      after.(dst) <- after.(dst) + 1;
      let predicted =
        Plan.move_decreases_sigma ~from_count:counts.(src)
          ~to_count:counts.(dst)
      in
      check Alcotest.bool
        (Printf.sprintf "predicate agrees on %s" (String.concat ";" (Array.to_list (Array.map string_of_int counts))))
        (float_sigma after < before -. 1e-12)
        predicted)
    cases

let prop_move_predicate =
  QCheck.Test.make ~name:"sigma-move predicate equals float recomputation"
    ~count:300
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.int_range 2 20) (int_range 0 50))
        (pair (int_bound 19) (int_bound 19)))
    (fun (counts, (i, j)) ->
      let n = Array.length counts in
      let src = i mod n and dst = j mod n in
      QCheck.assume (src <> dst && counts.(src) > 0);
      let before = float_sigma counts in
      let after = Array.copy counts in
      after.(src) <- after.(src) - 1;
      after.(dst) <- after.(dst) + 1;
      Plan.move_decreases_sigma ~from_count:counts.(src)
        ~to_count:counts.(dst)
      = (float_sigma after < before -. 1e-12))

let test_determinism () =
  let grow () =
    let _, b = make_global ~pmin:16 () in
    for i = 1 to 60 do
      Balancer.add_vnode b (Vnode.make ~id:(vid i) ~group:Group_id.root)
    done;
    Balancer.counts b
  in
  check Alcotest.(array int) "same counts twice" (grow ()) (grow ())

let suite =
  [
    Alcotest.test_case "bootstrap" `Quick test_bootstrap;
    Alcotest.test_case "bootstrap rejects non-empty" `Quick
      test_bootstrap_rejects_nonempty;
    Alcotest.test_case "invariants G2/G4/G5 through growth" `Quick
      test_invariants_through_growth;
    Alcotest.test_case "greedy equalizes counts" `Quick test_greedy_equalizes;
    Alcotest.test_case "coverage through growth" `Quick
      test_coverage_through_growth;
    Alcotest.test_case "add rejects non-empty vnode" `Quick
      test_add_rejects_nonempty;
    Alcotest.test_case "event stream on creation" `Quick test_events_stream;
    Alcotest.test_case "of_vnodes validation" `Quick test_of_vnodes_validation;
    Alcotest.test_case "of_vnodes adopts members" `Quick test_of_vnodes_adopts;
    Alcotest.test_case "sigma-move predicate (known cases)" `Quick
      test_move_decreases_sigma_matches_float;
    QCheck_alcotest.to_alcotest prop_move_predicate;
    Alcotest.test_case "determinism" `Quick test_determinism;
  ]
