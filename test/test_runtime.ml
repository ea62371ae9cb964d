(* Tests for Dht_snode: the pure planner and the distributed runtime. *)

open Dht_core
module Runtime = Dht_snode.Runtime
module Engine = Dht_event_sim.Engine
module Rng = Dht_prng.Rng

let check = Alcotest.check
let vid i = Vnode_id.make ~snode:i ~vnode:0

(* --- Plan --- *)

let test_plan_bootstrap_growth () =
  (* One vnode at pmin: the plan must split-all and hand half over. *)
  let p = Plan.creation ~pmin:8 ~counts:[ (vid 0, 8) ] ~newcomer:(vid 1) in
  check Alcotest.bool "split" true p.Plan.split_all;
  check Alcotest.int "newcomer gets half" 8 p.Plan.newcomer_count;
  check Alcotest.(list (pair bool int)) "final counts"
    [ (true, 8); (true, 8) ]
    (List.map (fun (_, c) -> (true, c)) p.Plan.final_counts)

let test_plan_no_split_when_uneven () =
  let counts = [ (vid 0, 11); (vid 1, 11); (vid 2, 10) ] in
  let p = Plan.creation ~pmin:8 ~counts ~newcomer:(vid 3) in
  check Alcotest.bool "no split" false p.Plan.split_all;
  check Alcotest.int "total conserved" 32
    (List.fold_left (fun acc (_, c) -> acc + c) 0 p.Plan.final_counts);
  (* Greedy equalizes: final spread <= 1. *)
  let cs = List.map snd p.Plan.final_counts in
  let mn = List.fold_left min max_int cs and mx = List.fold_left max 0 cs in
  check Alcotest.bool "spread" true (mx - mn <= 1)

let test_plan_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Plan.creation: empty LPDR")
    (fun () -> ignore (Plan.creation ~pmin:8 ~counts:[] ~newcomer:(vid 0)));
  Alcotest.check_raises "newcomer present"
    (Invalid_argument "Plan.creation: newcomer already in LPDR") (fun () ->
      ignore (Plan.creation ~pmin:8 ~counts:[ (vid 0, 8) ] ~newcomer:(vid 0)));
  Alcotest.check_raises "count out of bounds"
    (Invalid_argument "Plan.creation: count outside [Pmin, Pmax]") (fun () ->
      ignore (Plan.creation ~pmin:8 ~counts:[ (vid 0, 20) ] ~newcomer:(vid 1)))

let test_plan_tie_break () =
  (* Among vnodes holding the extreme count, the smallest id moves first:
     1 and 2 give from 11, then 0..3 from 10, then 0 and 1 from 9. *)
  let counts = [ (vid 0, 10); (vid 1, 11); (vid 2, 11); (vid 3, 10) ] in
  let p = Plan.creation ~pmin:8 ~counts ~newcomer:(vid 9) in
  check Alcotest.(list (pair int int)) "donors"
    [ (0, 2); (1, 3); (2, 2); (3, 1) ]
    (List.map
       (fun a -> (a.Plan.donor.Vnode_id.snode, a.Plan.give))
       p.Plan.assignments);
  check Alcotest.(list (pair int int)) "final counts"
    [ (0, 8); (1, 8); (2, 9); (3, 9); (9, 8) ]
    (List.map (fun (id, c) -> (id.Vnode_id.snode, c)) p.Plan.final_counts);
  (* Departure: the drain fills the smallest ids first, level by level,
     merging consecutive moves to the same survivor; equalization then
     moves 3 -> 1. *)
  match
    Plan.removal ~pmin:8
      ~counts:[ (vid 0, 8); (vid 1, 8); (vid 2, 12); (vid 3, 16) ]
      ~leaving:(vid 0)
  with
  | Error _ -> Alcotest.fail "refused"
  | Ok r ->
      check Alcotest.(list (triple int int int)) "moves"
        [ (0, 1, 5); (0, 2, 1); (0, 1, 1); (0, 2, 1); (3, 1, 1) ]
        (List.map
           (fun m ->
             (m.Plan.src.Vnode_id.snode, m.Plan.dst.Vnode_id.snode, m.Plan.n))
           r.Plan.moves);
      check Alcotest.(list (pair int int)) "survivors"
        [ (1, 15); (2, 14); (3, 15) ]
        (List.map (fun (id, c) -> (id.Vnode_id.snode, c)) r.Plan.removal_counts)

let test_plan_split () =
  let members = List.init 16 (fun i -> (vid i, 8 + (i mod 3))) in
  let split seed = Plan.split ~rng:(Rng.of_int seed) ~vmin:8 members in
  let by_id = List.sort (fun (a, _) (b, _) -> Vnode_id.compare a b) in
  let s = split 7 in
  List.iter
    (fun (side, half) ->
      check Alcotest.int (side ^ " holds Vmin") 8 (List.length half);
      check Alcotest.bool (side ^ " sorted by id") true (by_id half = half))
    [ ("left", s.Plan.left); ("right", s.Plan.right) ];
  check Alcotest.bool "halves are disjoint" true
    (List.for_all (fun m -> not (List.mem m s.Plan.right)) s.Plan.left);
  check Alcotest.bool "union is the group" true
    (by_id (s.Plan.left @ s.Plan.right) = members);
  check Alcotest.bool "same seed, same halves and side" true (split 7 = s);
  check Alcotest.bool "seeds vary the halves" true
    (List.exists
       (fun seed -> (split seed).Plan.left <> s.Plan.left)
       [ 1; 2; 3 ]);
  Alcotest.check_raises "group not full"
    (Invalid_argument "Plan.split: the group does not hold 2*Vmin vnodes")
    (fun () -> ignore (Plan.split ~rng:(Rng.of_int 1) ~vmin:9 members))

(* The core model and the runtime run the one planner, so fed the same
   creations and departures they must agree vnode by vnode: after every
   step each runtime LPDR copy equals the core's record of that group,
   and σ(Qv) agrees. *)
let vnode_id = Alcotest.testable Vnode_id.pp Vnode_id.equal

let check_differential ~label ~core_lpdr ~core_sigma ~core_add ~core_remove rt
    steps =
  List.iteri
    (fun k step ->
      let where = Printf.sprintf "%s, step %d" label k in
      (match step with
      | `Add id ->
          core_add id;
          Runtime.create_vnode rt ~id ()
      | `Remove id ->
          core_remove id;
          Runtime.remove_vnode rt ~id (fun ok ->
              if not ok then Alcotest.failf "%s: runtime refused" where));
      Runtime.run rt;
      let copies = ref 0 in
      List.iter
        (fun (sn : Runtime.View.snode_view) ->
          List.iter
            (fun (lp : Runtime.View.lpdr_copy) ->
              incr copies;
              check
                Alcotest.(list (pair vnode_id int))
                (Printf.sprintf "%s: snode %d LPDR copy" where sn.sid)
                (core_lpdr lp.group) lp.counts)
            sn.lpdrs)
        (Runtime.view rt).Runtime.View.snodes;
      check Alcotest.bool (where ^ ": LPDR copies compared") true (!copies > 0);
      check (Alcotest.float 1e-9) (where ^ ": sigma(Qv)") (core_sigma ())
        (Runtime.sigma_qv rt))
    steps

let sid i = Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)

let test_differential_local () =
  (* One group (Vmax = 128): 100 creations, then 7 departures. *)
  let dht =
    Local_dht.create ~pmin:8 ~vmin:64 ~rng:(Rng.of_int 5) ~first:(sid 0) ()
  in
  let rt =
    Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 64 }) ~snodes:8
      ~seed:5 ()
  in
  check_differential ~label:"local" rt
    ~core_lpdr:(fun g -> Option.get (Local_dht.lpdr dht g))
    ~core_sigma:(fun () -> Local_dht.sigma_qv dht)
    ~core_add:(fun id -> ignore (Local_dht.add_vnode dht ~id))
    ~core_remove:(fun id -> Result.get_ok (Local_dht.remove_vnode dht ~id))
    (List.init 100 (fun i -> `Add (sid (i + 1)))
    @ List.map (fun i -> `Remove (sid i)) [ 3; 17; 40; 41; 77; 90; 100 ])

let test_differential_global () =
  (* Growth interleaved with departures in the single global domain. *)
  let dht = Global_dht.create ~pmin:8 ~first:(sid 0) () in
  let rt =
    Runtime.create ~pmin:8 ~approach:Runtime.Global ~snodes:8 ~seed:6 ()
  in
  check_differential ~label:"global" rt
    ~core_lpdr:(fun _ -> Global_dht.gpdr dht)
    ~core_sigma:(fun () -> Global_dht.sigma_qv dht)
    ~core_add:(fun id -> ignore (Global_dht.add_vnode dht ~id))
    ~core_remove:(fun id -> Result.get_ok (Global_dht.remove_vnode dht ~id))
    (List.init 45 (fun i -> `Add (sid (i + 1)))
    @ List.concat_map
        (fun i -> [ `Remove (sid i); `Add (sid (50 + i)) ])
        [ 2; 9; 23; 24; 31; 44 ])

(* --- Runtime --- *)

let audit_ok rt label =
  match Dht_check.Invariants.(to_strings (check_runtime rt)) with
  | [] -> ()
  | es -> Alcotest.failf "%s:\n%s" label (String.concat "\n" es)

let test_runtime_bootstrap () =
  let rt = Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~snodes:4 ~seed:1 () in
  audit_ok rt "bootstrap";
  check Alcotest.int "one vnode" 1 (Runtime.vnode_count rt);
  check (Alcotest.float 0.) "balanced" 0. (Runtime.sigma_qv rt)

let test_runtime_sequential_growth () =
  let rt = Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~snodes:8 ~seed:2 () in
  for i = 1 to 40 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)) ();
    Runtime.run rt;
    check Alcotest.int
      (Printf.sprintf "creation %d completed" i)
      i (Runtime.completed_creations rt);
    audit_ok rt (Printf.sprintf "after creation %d" i)
  done;
  check Alcotest.int "no pending" 0 (Runtime.pending_operations rt);
  check Alcotest.bool "sigma reasonable" true (Runtime.sigma_qv rt < 40.)

let test_runtime_concurrent_burst () =
  (* All creation requests in flight at once: group locks, stale caches and
     retries must still converge to a clean global state. *)
  let rt = Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~snodes:16 ~seed:3 () in
  for i = 1 to 80 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(i mod 16) ~vnode:(i / 16))
      ()
  done;
  Runtime.run rt;
  check Alcotest.int "all completed" 80 (Runtime.completed_creations rt);
  check Alcotest.int "none pending" 0 (Runtime.pending_operations rt);
  audit_ok rt "after burst"

let test_runtime_data_plane () =
  let rt = Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~snodes:8 ~seed:4 () in
  for i = 1 to 15 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)) ()
  done;
  Runtime.run rt;
  for i = 0 to 199 do
    Runtime.put rt ~via:(i mod 8)
      ~key:(Printf.sprintf "key%d" i)
      ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  check Alcotest.int "puts done" 200 (Runtime.completed_puts rt);
  let wrong = ref 0 in
  for i = 0 to 199 do
    Runtime.get rt ~via:((i + 3) mod 8)
      ~key:(Printf.sprintf "key%d" i)
      (fun v -> if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  check Alcotest.int "gets done" 200 (Runtime.completed_gets rt);
  check Alcotest.int "all values correct" 0 !wrong;
  audit_ok rt "after data ops"

let test_runtime_ops_during_growth () =
  (* Reads and writes issued while balancing events are in flight must all
     complete correctly (migration + stale-cache forwarding + backoff). *)
  let rt = Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~snodes:8 ~seed:5 () in
  for i = 0 to 299 do
    Runtime.put rt ~via:(i mod 8)
      ~key:(Printf.sprintf "k%d" i)
      ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  let wrong = ref 0 in
  for i = 1 to 30 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)) ();
    (* Interleave reads with the creation traffic. *)
    for j = 0 to 9 do
      let k = ((i * 10) + j) mod 300 in
      Runtime.get rt ~via:(j mod 8)
        ~key:(Printf.sprintf "k%d" k)
        (fun v -> if v <> Some (string_of_int k) then incr wrong)
    done
  done;
  Runtime.run rt;
  check Alcotest.int "creations done" 30 (Runtime.completed_creations rt);
  check Alcotest.int "gets done" 300 (Runtime.completed_gets rt);
  check Alcotest.int "no wrong read" 0 !wrong;
  check Alcotest.int "nothing pending" 0 (Runtime.pending_operations rt);
  audit_ok rt "after growth under load"

let test_runtime_sigma_tracks_oracle_band () =
  (* The distributed runtime must land in the same balance band as the
     centralized oracle at the same scale (it is the same algorithm). *)
  let rt = Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 8 }) ~snodes:16 ~seed:6 () in
  for i = 1 to 255 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(i mod 16) ~vnode:(i / 16))
      ()
  done;
  Runtime.run rt;
  audit_ok rt "256 vnodes";
  let sigma = Runtime.sigma_qv rt in
  check Alcotest.bool
    (Printf.sprintf "sigma %.2f in the (8,8)-configuration band" sigma)
    true
    (sigma > 5. && sigma < 45.)

let test_runtime_messages_counted () =
  let rt = Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~snodes:4 ~seed:7 () in
  Runtime.create_vnode rt ~id:(vid 1) ();
  Runtime.run rt;
  let msgs = Dht_event_sim.Network.messages (Runtime.network rt) in
  check Alcotest.bool (Printf.sprintf "%d messages flowed" msgs) true (msgs > 0)

let test_runtime_validation () =
  Alcotest.check_raises "no snodes"
    (Invalid_argument "Runtime.create: need at least one snode") (fun () ->
      ignore (Runtime.create ~snodes:0 ~seed:1 ()));
  let rt = Runtime.create ~snodes:2 ~seed:1 () in
  Alcotest.check_raises "initiator range"
    (Invalid_argument "Runtime.create_vnode: initiator out of range") (fun () ->
      Runtime.create_vnode rt ~initiator:5 ~id:(vid 1) ())

let test_runtime_deterministic () =
  let final seed =
    let rt = Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~snodes:8 ~seed () in
    for i = 1 to 50 do
      Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)) ()
    done;
    Runtime.run rt;
    (Runtime.sigma_qv rt, Dht_event_sim.Network.messages (Runtime.network rt))
  in
  check
    (Alcotest.pair (Alcotest.float 0.) Alcotest.int)
    "same seed, same simulation" (final 11) (final 11)

(* --- Wire --- *)

let test_wire_sizes () =
  let module Wire = Dht_snode.Wire in
  (* Sizes grow with payload and every constructor has a describe tag. *)
  let small =
    Wire.Transfer { event = 1; to_vnode = vid 1; spans = []; data = [] }
  in
  let big =
    Wire.Transfer
      {
        event = 1;
        to_vnode = vid 1;
        spans = [];
        data =
          [
            ( "key",
              Dht_kv.Versioned.cell ~value:(String.make 100 'x') ~ts:1.0
                ~origin:0 () );
          ];
      }
  in
  check Alcotest.bool "payload counted" true
    (Wire.size_bytes big > Wire.size_bytes small + 100);
  check Alcotest.string "describe" "transfer" (Wire.describe small);
  check Alcotest.string "remove tag" "remove-request"
    (Wire.describe (Wire.Remove_request { leaving = vid 1; origin = 0; token = 0 }));
  List.iter
    (fun m -> check Alcotest.bool "positive size" true (Wire.size_bytes m > 0))
    [
      Wire.Routed
        { point = 0; hops = 0; retries = 0; origin = 0;
          op = Wire.Op_get { key = "k"; token = 0 } };
      Wire.All_received { event = 0 };
      Wire.Commit { event = 0; moved = [] };
      Wire.Remove_done { token = 0; ok = true };
    ]

(* --- Removal planner --- *)

let test_plan_removal_basic () =
  let counts = [ (vid 0, 12); (vid 1, 10); (vid 2, 10) ] in
  match Plan.removal ~pmin:8 ~counts ~leaving:(vid 0) with
  | Error _ -> Alcotest.fail "refused"
  | Ok r ->
      check Alcotest.int "total conserved" 32
        (List.fold_left (fun acc (_, c) -> acc + c) 0 r.Plan.removal_counts);
      check Alcotest.int "two survivors" 2 (List.length r.Plan.removal_counts);
      let cs = List.map snd r.Plan.removal_counts in
      check Alcotest.bool "spread <= 1" true
        (List.fold_left max 0 cs - List.fold_left min max_int cs <= 1);
      check Alcotest.int "all 12 partitions moved" 12
        (List.fold_left
           (fun acc m ->
             if Vnode_id.equal m.Plan.src (vid 0) then acc + m.Plan.n else acc)
           0 r.Plan.moves)

let test_plan_removal_errors () =
  (match Plan.removal ~pmin:8 ~counts:[ (vid 0, 8) ] ~leaving:(vid 0) with
  | Error `Last_vnode -> ()
  | _ -> Alcotest.fail "last vnode not detected");
  (match
     Plan.removal ~pmin:8 ~counts:[ (vid 0, 16); (vid 1, 16) ] ~leaving:(vid 0)
   with
  | Error `Insufficient_capacity -> ()
  | _ -> Alcotest.fail "capacity not checked");
  Alcotest.check_raises "absent vnode"
    (Invalid_argument "Plan.removal: leaving vnode not in LPDR") (fun () ->
      ignore (Plan.removal ~pmin:8 ~counts:[ (vid 0, 8) ] ~leaving:(vid 9)))

(* --- Distributed removal --- *)

let test_runtime_remove_vnode () =
  (* vmin = 32 keeps a single group for 32 vnodes, where the sole-group
     exception admits any departure. *)
  let rt = Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 32 }) ~snodes:8 ~seed:31 () in
  for i = 1 to 31 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)) ()
  done;
  Runtime.run rt;
  (* Store data so migration-on-departure is exercised. *)
  for i = 0 to 499 do
    Runtime.put rt ~via:(i mod 8) ~key:(Printf.sprintf "r%d" i)
      ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  let outcome = ref None in
  Runtime.remove_vnode rt ~id:(Vnode_id.make ~snode:5 ~vnode:2) (fun ok ->
      outcome := Some ok);
  Runtime.run rt;
  check (Alcotest.option Alcotest.bool) "departure accepted" (Some true) !outcome;
  audit_ok rt "after departure";
  (* All keys survive the departure. *)
  let wrong = ref 0 in
  for i = 0 to 499 do
    Runtime.get rt ~via:(i mod 8) ~key:(Printf.sprintf "r%d" i) (fun v ->
        if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  check Alcotest.int "no key lost" 0 !wrong

let test_runtime_remove_refusals () =
  let rt = Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~snodes:4 ~seed:32 () in
  (* Unknown vnode. *)
  let unknown = ref None in
  Runtime.remove_vnode rt ~id:(Vnode_id.make ~snode:2 ~vnode:9) (fun ok ->
      unknown := Some ok);
  Runtime.run rt;
  check (Alcotest.option Alcotest.bool) "unknown refused" (Some false) !unknown;
  (* Last vnode of the DHT. *)
  let last = ref None in
  Runtime.remove_vnode rt ~id:(vid 0) (fun ok -> last := Some ok);
  Runtime.run rt;
  check (Alcotest.option Alcotest.bool) "last vnode refused" (Some false) !last;
  audit_ok rt "after refusals"

let test_runtime_churn_mixed () =
  (* Concurrent joins and leaves through the message protocol. *)
  let rt = Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~snodes:8 ~seed:33 () in
  for i = 1 to 47 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)) ()
  done;
  Runtime.run rt;
  let accepted = ref 0 and refused = ref 0 in
  for i = 48 to 63 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)) ();
    Runtime.remove_vnode rt ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:((i - 40) / 8))
      (fun ok -> incr (if ok then accepted else refused))
  done;
  Runtime.run rt;
  check Alcotest.int "all removals resolved" 16 (!accepted + !refused);
  check Alcotest.int "all creations done" 63 (Runtime.completed_creations rt);
  check Alcotest.int "nothing pending" 0 (Runtime.pending_operations rt);
  audit_ok rt "after mixed churn"

(* --- Global approach over the same runtime --- *)

let test_runtime_global_growth () =
  let rt = Runtime.create ~pmin:8 ~approach:Runtime.Global ~snodes:8 ~seed:21 () in
  for i = 1 to 63 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)) ()
  done;
  Runtime.run rt;
  check Alcotest.int "all completed" 63 (Runtime.completed_creations rt);
  audit_ok rt "global growth";
  (* 64 vnodes under the global approach is a power-of-two population:
     perfect balance, distributed. *)
  check (Alcotest.float 1e-9) "sigma 0 at power of two" 0. (Runtime.sigma_qv rt)

let test_runtime_global_vs_local_traffic () =
  (* The global approach synchronizes every vnode-hosting snode on every
     creation; the local approach only a group's snodes. Same workload,
     functional runtimes: global must cost more messages. *)
  let grow approach =
    let rt = Runtime.create ~pmin:8 ~approach ~snodes:16 ~seed:22 () in
    for i = 1 to 96 do
      Runtime.create_vnode rt
        ~id:(Vnode_id.make ~snode:(i mod 16) ~vnode:(i / 16))
        ()
    done;
    Runtime.run rt;
    audit_ok rt "traffic comparison";
    ( Dht_event_sim.Network.messages (Runtime.network rt),
      Dht_event_sim.Engine.now (Runtime.engine rt) )
  in
  let gmsgs, gspan = grow Runtime.Global in
  let lmsgs, lspan = grow (Runtime.Local { vmin = 8 }) in
  check Alcotest.bool
    (Printf.sprintf "messages: global %d > local %d" gmsgs lmsgs)
    true (gmsgs > lmsgs);
  check Alcotest.bool
    (Printf.sprintf "makespan: global %.4f >= local %.4f" gspan lspan)
    true (gspan >= lspan)

let test_runtime_global_matches_oracle_exactly () =
  (* Under the global approach victim choice is irrelevant (single domain)
     and the balance depends only on the count multiset, which the pure
     planner reproduces deterministically: the distributed sigma must equal
     the centralized oracle's to the last bit, at every size. *)
  let rt = Runtime.create ~pmin:8 ~approach:Runtime.Global ~snodes:8 ~seed:24 () in
  let oracle = Dht_core.Global_dht.create ~pmin:8 ~first:(vid 0) () in
  for i = 1 to 50 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)) ();
    Runtime.run rt;
    ignore
      (Dht_core.Global_dht.add_vnode oracle
         ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)));
    check
      (Alcotest.float 1e-9)
      (Printf.sprintf "sigma equal at V=%d" (i + 1))
      (Dht_core.Global_dht.sigma_qv oracle)
      (Runtime.sigma_qv rt)
  done

let test_runtime_global_data_plane () =
  let rt = Runtime.create ~pmin:8 ~approach:Runtime.Global ~snodes:4 ~seed:23 () in
  for i = 0 to 99 do
    Runtime.put rt ~via:(i mod 4) ~key:(Printf.sprintf "g%d" i)
      ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  for i = 1 to 20 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 4) ~vnode:(i / 4)) ()
  done;
  Runtime.run rt;
  let wrong = ref 0 in
  for i = 0 to 99 do
    Runtime.get rt ~via:((i + 1) mod 4) ~key:(Printf.sprintf "g%d" i)
      (fun v -> if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  check Alcotest.int "no wrong reads" 0 !wrong;
  audit_ok rt "global data plane"

let prop_random_interleavings =
  (* Fuzz the runtime: a random interleaving of creations, puts and gets
     fired without ever draining the engine in between. Everything must
     complete, reads must be consistent with a model map, and the final
     distributed state must audit clean. *)
  QCheck.Test.make ~name:"runtime survives random op interleavings" ~count:15
    QCheck.(pair small_int (int_range 20 120))
    (fun (seed, ops) ->
      let rng = Rng.of_int (seed + 1000) in
      let snodes = 2 + Rng.int rng 14 in
      let rt = Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~snodes ~seed () in
      let model = Hashtbl.create 64 in
      let next_vnode = ref 1 in
      let creations = ref 0 and puts = ref 0 and gets = ref 0 in
      let wrong = ref 0 in
      for op = 1 to ops do
        match Rng.int rng 3 with
        | 0 ->
            let i = !next_vnode in
            incr next_vnode;
            incr creations;
            Runtime.create_vnode rt
              ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
              ()
        | 1 ->
            (* Unique key per write: concurrent same-key writes from
               different snodes have no global order (see Runtime.put). *)
            let key = Printf.sprintf "k%d" op in
            let value = string_of_int (Rng.int rng 1000) in
            Hashtbl.replace model key value;
            incr puts;
            Runtime.put rt ~via:(Rng.int rng snodes) ~key ~value ()
        | _ ->
            (* Read a key we have not touched recently: expect the model's
               value only when no put for it is still in flight, so just
               check gets complete and known-absent keys read as None. *)
            let key = Printf.sprintf "absent%d" (Rng.int rng 50) in
            incr gets;
            Runtime.get rt ~via:(Rng.int rng snodes) ~key (fun v ->
                if v <> None then incr wrong)
      done;
      Runtime.run rt;
      (* Quiescent: now every model binding must read back exactly. *)
      Hashtbl.iter
        (fun key value ->
          Runtime.get rt ~via:(Rng.int rng snodes) ~key (fun v ->
              if v <> Some value then incr wrong))
        model;
      Runtime.run rt;
      if Runtime.pending_operations rt <> 0 then
        QCheck.Test.fail_reportf "pending ops left";
      if Runtime.completed_creations rt <> !creations then
        QCheck.Test.fail_reportf "creations lost";
      if !wrong > 0 then QCheck.Test.fail_reportf "%d wrong reads" !wrong;
      match Dht_check.Invariants.(to_strings (check_runtime rt)) with
      | [] -> true
      | es -> QCheck.Test.fail_reportf "%s" (String.concat "\n" es))

(* --- Fault injection and crash recovery --- *)

let test_runtime_reliable_under_faults () =
  (* Lossy, duplicating, jittery network: the reliable layer must carry
     every operation to completion, and once faults cease the distributed
     state must audit clean. *)
  let faults =
    Runtime.Fault.create ~drop:0.05 ~duplicate:0.02 ~jitter:1e-4 ~seed:21 ()
  in
  let rt =
    Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~faults
      ~snodes:8 ~seed:21 ()
  in
  let rng = Rng.of_int 77 in
  for i = 0 to 59 do
    Runtime.put rt ~via:(Rng.int rng 8) ~key:(Printf.sprintf "k%d" i)
      ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  for i = 1 to 11 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)) ()
  done;
  Runtime.run rt;
  check Alcotest.int "creations done despite faults" 11
    (Runtime.completed_creations rt);
  check Alcotest.int "no pending ops" 0 (Runtime.pending_operations rt);
  (* Faults cease; every key must read back exactly. *)
  Runtime.Fault.set_drop faults 0.;
  Runtime.Fault.set_duplicate faults 0.;
  Runtime.Fault.set_jitter faults 0.;
  let wrong = ref 0 in
  for i = 0 to 59 do
    Runtime.get rt ~via:(Rng.int rng 8) ~key:(Printf.sprintf "k%d" i) (fun v ->
        if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  check Alcotest.int "all keys read back" 0 !wrong;
  let s = Runtime.stats rt in
  check Alcotest.bool "drops occurred" true (s.Runtime.drops > 0);
  check Alcotest.bool "timeouts fired" true (s.Runtime.timeouts > 0);
  check Alcotest.bool "retransmissions sent" true (s.Runtime.retransmits > 0);
  audit_ok rt "after faults cease"

let test_runtime_crash_recovery () =
  (* Crash-stop a loaded snode, keep operating around it, bring it back:
     stalled operations must drain and the audit must hold. *)
  let faults = Runtime.Fault.create ~seed:5 () in
  let rt =
    Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~faults
      ~snodes:6 ~seed:31 ()
  in
  for i = 1 to 7 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 6) ~vnode:(i / 6)) ()
  done;
  Runtime.run rt;
  for i = 0 to 39 do
    Runtime.put rt ~via:(i mod 6) ~key:(Printf.sprintf "c%d" i)
      ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  check Alcotest.bool "alive before crash" true (Runtime.alive rt 2);
  Runtime.crash_snode rt 2;
  check Alcotest.bool "down after crash" false (Runtime.alive rt 2);
  (* Reads and one more creation issued while the snode is down: those that
     need it stall on retransmission, the rest complete. *)
  let vias = [| 0; 1; 3; 4; 5 |] in
  let wrong = ref 0 in
  for i = 0 to 39 do
    Runtime.get rt ~via:vias.(i mod 5) ~key:(Printf.sprintf "c%d" i) (fun v ->
        if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.create_vnode rt ~initiator:4 ~id:(Vnode_id.make ~snode:4 ~vnode:2) ();
  let e = Runtime.engine rt in
  Runtime.run ~until:(Engine.now e +. 0.05) rt;
  Runtime.restart_snode rt 2;
  check Alcotest.bool "back up" true (Runtime.alive rt 2);
  Runtime.run rt;
  check Alcotest.int "all reads served" 0 !wrong;
  check Alcotest.int "nothing left pending" 0 (Runtime.pending_operations rt);
  check Alcotest.int "creation completed across the crash" 8
    (Runtime.completed_creations rt);
  let s = Runtime.stats rt in
  check Alcotest.int "one crash" 1 s.Runtime.crashes;
  check Alcotest.int "one recovery" 1 s.Runtime.recoveries;
  audit_ok rt "after recovery"

let test_runtime_create_on_done () =
  (* [create_vnode ?on_done] fires exactly once per creation, as
     [completed_creations] counts it — also when the reliable layer
     retransmits and deduplicates on a lossy, duplicating network. *)
  let run ?faults label =
    let rt =
      Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ?faults
        ~snodes:8 ~seed:21 ()
    in
    let fired = Array.make 24 0 and total = ref 0 in
    for i = 1 to 23 do
      Runtime.create_vnode rt
        ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8))
        ~on_done:(fun () ->
          fired.(i) <- fired.(i) + 1;
          incr total;
          check Alcotest.int (label ^ ": fires as counted")
            (Runtime.completed_creations rt) !total)
        ()
    done;
    Runtime.run rt;
    check Alcotest.int (label ^ ": all completed") 23
      (Runtime.completed_creations rt);
    Array.iteri
      (fun i n ->
        check Alcotest.int (Printf.sprintf "%s: vnode %d" label i)
          (if i = 0 then 0 else 1) n)
      fired;
    rt
  in
  ignore (run "fault-free");
  let faults =
    Runtime.Fault.create ~drop:0.05 ~duplicate:0.05 ~jitter:1e-4 ~seed:21 ()
  in
  let s = Runtime.stats (run ~faults "lossy") in
  check Alcotest.bool "faults bit" true (s.Runtime.drops > 0)

(* --- Overload and graceful degradation --- *)

let test_runtime_degradation_validation () =
  Alcotest.check_raises "negative retry budget"
    (Invalid_argument "Runtime.create: retry_budget < 0") (fun () ->
      ignore (Runtime.create ~retry_budget:(-1) ~snodes:2 ~seed:1 ()));
  Alcotest.check_raises "negative window"
    (Invalid_argument "Runtime.create: max_inflight < 0") (fun () ->
      ignore (Runtime.create ~max_inflight:(-1) ~snodes:2 ~seed:1 ()));
  Alcotest.check_raises "negative ingress"
    (Invalid_argument "Runtime.create: ingress_limit < 0") (fun () ->
      ignore (Runtime.create ~ingress_limit:(-1) ~snodes:2 ~seed:1 ()));
  Alcotest.check_raises "bad deadline"
    (Invalid_argument "Runtime.create: admission_deadline must be finite and >= 0")
    (fun () ->
      ignore (Runtime.create ~admission_deadline:(-1.) ~snodes:2 ~seed:1 ()))

let test_runtime_backpressure_window () =
  (* max_inflight = 1: every snode may have one un-acked reliable message
     per peer; the rest park in the backlog and promote in order. The
     workload must still complete, the window bookkeeping must audit
     clean, and the parking must actually have happened. *)
  let faults = Runtime.Fault.create ~seed:41 () in
  let rt =
    Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~faults
      ~max_inflight:1 ~snodes:4 ~seed:41 ()
  in
  for i = 0 to 79 do
    Runtime.put rt ~via:(i mod 4) ~key:(Printf.sprintf "bp%d" i)
      ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  check Alcotest.int "all puts done" 80 (Runtime.completed_puts rt);
  let ov = Runtime.overload_stats rt in
  check Alcotest.bool "messages were backpressured" true (ov.Runtime.backpressured > 0);
  check Alcotest.bool "outbox grew past the window" true (ov.Runtime.outbox_peak >= 1);
  check Alcotest.(list string) "window bookkeeping sound" [] (Runtime.queue_audit rt);
  let wrong = ref 0 in
  for i = 0 to 79 do
    Runtime.get rt ~via:((i + 1) mod 4) ~key:(Printf.sprintf "bp%d" i) (fun v ->
        if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  check Alcotest.int "no value lost under backpressure" 0 !wrong;
  audit_ok rt "after backpressured workload"

let test_runtime_adaptive_rto_on_gray_route () =
  (* Snode 0 (the bootstrap owner of all data) is gray-failed: alive, but
     its service time dwarfs the fixed 1 ms RTO base, so the fixed ladder
     retransmits spuriously on every exchange. The Jacobson/Karn estimator
     must learn the true round trip and stop the spurious traffic; same
     seed, same workload, strictly fewer retransmissions. *)
  let run ~adaptive =
    let faults = Runtime.Fault.create ~seed:43 () in
    (* Round trip ~1.3 ms against a 1 ms fixed RTO: most exchanges time out
       spuriously, but the ladder's jitter lets some acks land first, and
       those are the clean Karn samples that seed the estimator. *)
    Runtime.Fault.set_slow faults 0 25.;
    let rt =
      Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~faults
        ~adaptive_rto:adaptive ~snodes:4 ~seed:43 ()
    in
    (* Pace the workload out in virtual time: once the estimator has
       learned the route, every later exchange benefits. *)
    let e = Runtime.engine rt in
    for i = 0 to 39 do
      Engine.schedule e ~delay:(0.005 *. float_of_int (i + 1)) (fun () ->
          Runtime.put rt
            ~via:(1 + (i mod 3))
            ~key:(Printf.sprintf "gray%d" i)
            ~value:(string_of_int i) ())
    done;
    Runtime.run rt;
    check Alcotest.int "all puts done on the gray route" 40
      (Runtime.completed_puts rt);
    (Runtime.stats rt).Runtime.retransmits
  in
  let fixed = run ~adaptive:false and adaptive = run ~adaptive:true in
  check Alcotest.bool
    (Printf.sprintf "adaptive %d < fixed %d retransmits" adaptive fixed)
    true (adaptive < fixed)

let test_runtime_admission_shed () =
  (* An admission deadline far below any achievable quorum round trip:
     every quorum op is shed before touching a replica. Puts settle
     unacknowledged (on_done never fires), gets answer None, the Busy
     reply is counted at the origin, and nothing is left pending. *)
  let faults = Runtime.Fault.create ~seed:47 () in
  let rt =
    Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~faults
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~admission_deadline:1e-9
      ~snodes:4 ~seed:47 ()
  in
  let acked = ref 0 and got = ref [] in
  for i = 0 to 9 do
    Runtime.put rt ~via:(i mod 4) ~on_done:(fun () -> incr acked)
      ~key:(Printf.sprintf "shed%d" i) ~value:"v" ()
  done;
  Runtime.run rt;
  for i = 0 to 4 do
    Runtime.get rt ~via:(i mod 4) ~key:(Printf.sprintf "shed%d" i) (fun v ->
        got := v :: !got)
  done;
  Runtime.run rt;
  check Alcotest.int "no put acknowledged" 0 !acked;
  check Alcotest.int "every get answered" 5 (List.length !got);
  List.iter
    (fun v ->
      check (Alcotest.option Alcotest.string) "shed get answers None" None v)
    !got;
  check Alcotest.int "nothing pending" 0 (Runtime.pending_operations rt);
  let ov = Runtime.overload_stats rt in
  check Alcotest.int "all 15 ops shed" 15 ov.Runtime.sheds;
  check Alcotest.int "Busy settled at the origin for each" 15
    ov.Runtime.busy_rejections;
  (* No shed value may ever surface in the authoritative store. *)
  for i = 0 to 9 do
    check (Alcotest.option Alcotest.string) "shed write left no trace" None
      (Runtime.peek rt ~key:(Printf.sprintf "shed%d" i))
  done

let test_runtime_retry_budget_property () =
  (* The retry-budget law across 100 seeds of a lossy workload:
     retransmits <= budget * reliable_messages, and past-budget attempts
     surface as probes instead of vanishing. *)
  let budget = 2 in
  let violations = ref [] in
  let probes_seen = ref 0 in
  for seed = 1 to 100 do
    let faults = Runtime.Fault.create ~drop:0.25 ~seed () in
    let rt =
      Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~faults
        ~retry_budget:budget ~snodes:3 ~seed ()
    in
    for i = 0 to 14 do
      Runtime.put rt ~via:(i mod 3) ~key:(Printf.sprintf "rb%d" i)
        ~value:(string_of_int i) ()
    done;
    Runtime.run ~until:2. rt;
    let s = Runtime.stats rt and ov = Runtime.overload_stats rt in
    probes_seen := !probes_seen + ov.Runtime.probes;
    if s.Runtime.retransmits > budget * ov.Runtime.reliable_messages then
      violations := seed :: !violations
  done;
  check Alcotest.(list int) "retransmits <= budget * reliable messages" []
    !violations;
  check Alcotest.bool "past-budget attempts surfaced as probes" true
    (!probes_seen > 0)

let suite =
  [
    Alcotest.test_case "plan: bootstrap growth" `Quick test_plan_bootstrap_growth;
    Alcotest.test_case "plan: uneven counts" `Quick test_plan_no_split_when_uneven;
    Alcotest.test_case "plan: validation" `Quick test_plan_validation;
    Alcotest.test_case "plan: smallest-id tie-break" `Quick test_plan_tie_break;
    Alcotest.test_case "plan: split halves" `Quick test_plan_split;
    Alcotest.test_case "plan: local model = runtime, per vnode" `Quick
      test_differential_local;
    Alcotest.test_case "plan: global model = runtime, per vnode" `Quick
      test_differential_global;
    Alcotest.test_case "runtime: bootstrap" `Quick test_runtime_bootstrap;
    Alcotest.test_case "runtime: sequential growth audits" `Quick
      test_runtime_sequential_growth;
    Alcotest.test_case "runtime: concurrent burst" `Quick
      test_runtime_concurrent_burst;
    Alcotest.test_case "runtime: data plane" `Quick test_runtime_data_plane;
    Alcotest.test_case "runtime: reads during growth" `Quick
      test_runtime_ops_during_growth;
    Alcotest.test_case "runtime: sigma in oracle band" `Quick
      test_runtime_sigma_tracks_oracle_band;
    Alcotest.test_case "runtime: traffic counted" `Quick
      test_runtime_messages_counted;
    Alcotest.test_case "runtime: validation" `Quick test_runtime_validation;
    Alcotest.test_case "runtime: deterministic" `Quick test_runtime_deterministic;
    Alcotest.test_case "wire sizes and tags" `Quick test_wire_sizes;
    Alcotest.test_case "plan: removal basic" `Quick test_plan_removal_basic;
    Alcotest.test_case "plan: removal errors" `Quick test_plan_removal_errors;
    Alcotest.test_case "runtime: vnode departure" `Quick
      test_runtime_remove_vnode;
    Alcotest.test_case "runtime: departure refusals" `Quick
      test_runtime_remove_refusals;
    Alcotest.test_case "runtime: mixed join/leave churn" `Quick
      test_runtime_churn_mixed;
    Alcotest.test_case "runtime: global approach growth" `Quick
      test_runtime_global_growth;
    Alcotest.test_case "runtime: global vs local traffic" `Quick
      test_runtime_global_vs_local_traffic;
    Alcotest.test_case "runtime: global data plane" `Quick
      test_runtime_global_data_plane;
    Alcotest.test_case "runtime: global = oracle exactly" `Quick
      test_runtime_global_matches_oracle_exactly;
    QCheck_alcotest.to_alcotest prop_random_interleavings;
    Alcotest.test_case "runtime: reliable under faults" `Quick
      test_runtime_reliable_under_faults;
    Alcotest.test_case "runtime: crash recovery" `Quick
      test_runtime_crash_recovery;
    Alcotest.test_case "runtime: create on_done fires once" `Quick
      test_runtime_create_on_done;
    Alcotest.test_case "runtime: degradation knob validation" `Quick
      test_runtime_degradation_validation;
    Alcotest.test_case "runtime: backpressure window" `Quick
      test_runtime_backpressure_window;
    Alcotest.test_case "runtime: adaptive RTO on a gray route" `Quick
      test_runtime_adaptive_rto_on_gray_route;
    Alcotest.test_case "runtime: admission control sheds with Busy" `Quick
      test_runtime_admission_shed;
    Alcotest.test_case "runtime: retry budget across 100 seeds" `Quick
      test_runtime_retry_budget_property;
  ]
