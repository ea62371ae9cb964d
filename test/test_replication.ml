(* Replication subsystem: placement policy, versioned cells, quorum
   reads/writes, hinted handoff, anti-entropy repair and the determinism
   pin of the replicated message protocol. *)

open Dht_core
module Placement = Dht_replication.Placement
module Versioned = Dht_kv.Versioned
module Runtime = Dht_snode.Runtime
module Engine = Dht_event_sim.Engine
module Network = Dht_event_sim.Network
module Rng = Dht_prng.Rng
module Registry = Dht_telemetry.Registry
module Trace = Dht_telemetry.Trace
module Span = Dht_hashspace.Span

let check = Alcotest.check

let audit_ok rt what =
  match Dht_check.Invariants.(to_strings (check_runtime rt)) with
  | [] -> ()
  | es -> Alcotest.fail (what ^ ":\n" ^ String.concat "\n" es)

(* --- Placement --- *)

let prop_placement =
  QCheck.Test.make ~name:"placement: distinct snodes, primary first, full"
    ~count:200
    QCheck.(triple (int_range 1 24) (int_range 1 5) small_int)
    (fun (n, rfactor, salt) ->
      let rng = Rng.of_int salt in
      let primary = Rng.int rng n in
      let group_snodes =
        List.init (1 + Rng.int rng n) (fun _ -> Rng.int rng n)
      in
      let reps = Placement.replicas ~rfactor ~n ~primary ~group_snodes in
      if List.hd reps <> primary then QCheck.Test.fail_reportf "primary not first";
      if List.length reps <> min rfactor n then
        QCheck.Test.fail_reportf "wrong cardinality %d" (List.length reps);
      if List.length (List.sort_uniq compare reps) <> List.length reps then
        QCheck.Test.fail_reportf "duplicate snode";
      true)

(* The full-walk placement [Placement.replicas] computed before it learned
   to stop early: every snode sorted into out-of-group and in-group lists,
   concatenated, then cut to [rfactor - 1] backups. *)
let reference_replicas ~rfactor ~n ~primary ~group_snodes =
  let norm s = ((s mod n) + n) mod n in
  let primary = norm primary in
  let in_group s = List.exists (fun g -> norm g = s) group_snodes in
  let preferred = ref [] and backfill = ref [] in
  for i = n - 1 downto 1 do
    let s = (primary + i) mod n in
    if in_group s then backfill := s :: !backfill
    else preferred := s :: !preferred
  done;
  let rec take k = function
    | [] -> []
    | x :: tl -> if k <= 0 then [] else x :: take (k - 1) tl
  in
  primary :: take (min rfactor n - 1) (!preferred @ !backfill)

let prop_placement_matches_full_walk =
  QCheck.Test.make ~name:"placement: early stop equals the full ring walk"
    ~count:500
    QCheck.(
      quad
        (oneof [ int_range 1 12; int_range 1 300 ])
        (int_range 1 8) (int_range (-600) 600) small_int)
    (fun (n, rfactor, primary, salt) ->
      let rng = Rng.of_int salt in
      (* Unnormalised ids: negative and beyond [n], sometimes covering most
         of a small ring so the backfill runs. *)
      let group_snodes =
        List.init (Rng.int rng (min n 12 + 1)) (fun _ -> Rng.int rng (4 * n) - (2 * n))
      in
      let got = Placement.replicas ~rfactor ~n ~primary ~group_snodes in
      let want = reference_replicas ~rfactor ~n ~primary ~group_snodes in
      if got <> want then
        QCheck.Test.fail_reportf "n=%d rfactor=%d primary=%d: got [%s], want [%s]"
          n rfactor primary
          (String.concat "; " (List.map string_of_int got))
          (String.concat "; " (List.map string_of_int want));
      true)

let test_placement_prefers_other_groups () =
  (* Plenty of snodes outside the owner group: every backup must come from
     outside it (crash-domain diversity, the cluster model's point). *)
  let reps =
    Placement.replicas ~rfactor:3 ~n:10 ~primary:2 ~group_snodes:[ 2; 3; 4 ]
  in
  check Alcotest.(list int) "backups skip the group" [ 2; 5; 6 ] reps;
  (* Group covers the whole cluster: backfill keeps ring order. *)
  let reps =
    Placement.replicas ~rfactor:3 ~n:3 ~primary:1 ~group_snodes:[ 0; 1; 2 ]
  in
  check Alcotest.(list int) "backfill within the group" [ 1; 2; 0 ] reps

let test_placement_successor () =
  check
    Alcotest.(option int)
    "skips avoided" (Some 3)
    (Placement.successor ~n:4 ~avoid:[ 0; 1; 2 ] ~start:1);
  check
    Alcotest.(option int)
    "none when saturated" None
    (Placement.successor ~n:3 ~avoid:[ 0; 1; 2 ] ~start:0)

(* --- Versioned cells --- *)

let prop_lww_total_order =
  QCheck.Test.make ~name:"versioned: LWW is a deterministic total order"
    ~count:200
    QCheck.(
      pair
        (pair (float_bound_exclusive 10.) small_nat)
        (pair (float_bound_exclusive 10.) small_nat))
    (fun ((ts1, o1), (ts2, o2)) ->
      let a = Versioned.cell ~value:"a" ~ts:ts1 ~origin:o1 () in
      let b = Versioned.cell ~value:"b" ~ts:ts2 ~origin:o2 () in
      let w1 = Versioned.merge ~mine:a ~theirs:b in
      let w2 = Versioned.merge ~mine:b ~theirs:a in
      (* Same winner from both sides unless the versions tie exactly (then
         each side keeps its incumbent — never reached by real traffic,
         where equal stamps imply the same write). *)
      if ts1 = ts2 && o1 = o2 then true
      else if w1.Versioned.value <> w2.Versioned.value then
        QCheck.Test.fail_reportf "merge not symmetric"
      else
        let newest = if ts1 > ts2 || (ts1 = ts2 && o1 > o2) then a else b in
        w1.Versioned.value = newest.Versioned.value)

(* --- Read-your-writes under quorum intersection --- *)

let prop_read_your_writes =
  (* R + W > rfactor and no faults: a put acknowledged anywhere must be
     visible to a subsequent get from ANY snode — across 100 random
     cluster shapes, quorum configurations and growth schedules. *)
  QCheck.Test.make ~name:"quorum: read-your-writes across 100 schedules"
    ~count:100 QCheck.small_int (fun salt ->
      let rng = Rng.of_int (salt * 7919) in
      let snodes = 2 + Rng.int rng 7 in
      let rfactor = 2 + Rng.int rng (min 3 snodes - 1) in
      (* All (R, W) with R + W > rfactor, picked at random. *)
      let quorums =
        List.concat_map
          (fun r ->
            List.filter_map
              (fun w -> if r + w > rfactor then Some (r, w) else None)
              (List.init rfactor (fun i -> i + 1)))
          (List.init rfactor (fun i -> i + 1))
      in
      let read_quorum, write_quorum =
        List.nth quorums (Rng.int rng (List.length quorums))
      in
      let rt =
        Runtime.create ~pmin:8
          ~approach:(Runtime.Local { vmin = 4 })
          ~rfactor ~read_quorum ~write_quorum ~snodes ~seed:salt ()
      in
      (* Random growth, drained so the replica maps are committed
         everywhere before the data ops (quorum reads are eventually
         consistent only while a migration is in flight). *)
      let vnodes = Rng.int rng 9 in
      for i = 1 to vnodes do
        Runtime.create_vnode rt
          ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
          ()
      done;
      Runtime.run rt;
      let wrong = ref 0 and acked = ref 0 in
      for i = 0 to 19 do
        Runtime.put rt ~via:(Rng.int rng snodes)
          ~on_done:(fun () -> incr acked)
          ~key:(Printf.sprintf "k%d" i) ~value:(string_of_int i) ()
      done;
      Runtime.run rt;
      for i = 0 to 19 do
        Runtime.get rt ~via:(Rng.int rng snodes) ~key:(Printf.sprintf "k%d" i)
          (fun v -> if v <> Some (string_of_int i) then incr wrong)
      done;
      Runtime.run rt;
      if !acked <> 20 then QCheck.Test.fail_reportf "%d puts acked" !acked;
      if !wrong > 0 then QCheck.Test.fail_reportf "%d stale reads" !wrong;
      if Runtime.pending_operations rt <> 0 then
        QCheck.Test.fail_reportf "pending ops left";
      match Dht_check.Invariants.(to_strings (check_runtime rt)) with
      | [] -> true
      | es -> QCheck.Test.fail_reportf "%s" (String.concat "\n" es))

(* --- Quorum basics --- *)

let test_quorum_validation () =
  let mk ~rfactor ~r ~w ~snodes =
    ignore
      (Runtime.create ~rfactor ~read_quorum:r ~write_quorum:w ~snodes ~seed:1
         ())
  in
  Alcotest.check_raises "R + W <= rfactor rejected"
    (Invalid_argument
       "Params.check_quorum: R + W must exceed rfactor (quorum intersection)")
    (fun () -> mk ~rfactor:3 ~r:1 ~w:2 ~snodes:4);
  Alcotest.check_raises "rfactor > snodes rejected"
    (Invalid_argument "Runtime.create: rfactor exceeds the snode count")
    (fun () -> mk ~rfactor:3 ~r:2 ~w:2 ~snodes:2)

let test_quorum_overwrite_lww () =
  (* Sequential overwrites from different coordinators resolve to the
     latest write everywhere. *)
  let rt =
    Runtime.create ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes:5 ~seed:3
      ()
  in
  Runtime.put rt ~via:1 ~key:"k" ~value:"first" ();
  Runtime.run rt;
  Runtime.put rt ~via:4 ~key:"k" ~value:"second" ();
  Runtime.run rt;
  let seen = ref [] in
  for via = 0 to 4 do
    Runtime.get rt ~via ~key:"k" (fun v -> seen := v :: !seen)
  done;
  Runtime.run rt;
  check
    Alcotest.(list (option string))
    "every snode reads the overwrite"
    [ Some "second"; Some "second"; Some "second"; Some "second"; Some "second" ]
    !seen;
  check Alcotest.(option string) "oracle agrees" (Some "second")
    (Runtime.peek rt ~key:"k")

let test_same_tick_overwrite () =
  (* Two puts to one key issued through one coordinator in the same
     engine tick: [Engine.now] is identical for both stamps, so only the
     version's sequence component orders them. The second write must win
     everywhere — an exact-tie LWW merge would silently drop it while
     still acknowledging it. *)
  let rt =
    Runtime.create ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes:5
      ~seed:11 ()
  in
  Runtime.put rt ~via:1 ~key:"k" ~value:"first" ();
  Runtime.put rt ~via:1 ~key:"k" ~value:"second" ();
  Runtime.run rt;
  let seen = ref [] in
  for via = 0 to 4 do
    Runtime.get rt ~via ~key:"k" (fun v -> seen := v :: !seen)
  done;
  Runtime.run rt;
  check
    Alcotest.(list (option string))
    "same-tick overwrite visible from every snode"
    [ Some "second"; Some "second"; Some "second"; Some "second";
      Some "second" ]
    !seen;
  check Alcotest.(option string) "oracle agrees" (Some "second")
    (Runtime.peek rt ~key:"k")

let test_dead_via_rerouted () =
  (* The entry snode is down: a replicated operation must re-route to a
     live coordinator and still meet its quorum, not demote to a parked
     single-copy write that voids the R+W intersection guarantee. *)
  let rt =
    Runtime.create ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes:5 ~seed:7
      ()
  in
  Runtime.crash_snode rt 3;
  let acked = ref false in
  Runtime.put rt ~via:3
    ~on_done:(fun () -> acked := true)
    ~key:"k" ~value:"v" ();
  let e = Runtime.engine rt in
  Runtime.run ~until:(Engine.now e +. 0.5) rt;
  check Alcotest.bool "write acked through a live coordinator" true !acked;
  let got = ref None in
  Runtime.get rt ~via:3 ~key:"k" (fun v -> got := v);
  Runtime.run ~until:(Engine.now e +. 0.5) rt;
  check Alcotest.(option string) "read rerouted too" (Some "v") !got

let test_unmeetable_quorum_fails () =
  (* rfactor = snodes and two of three replicas dead with no recovery
     scheduled: W = 2 can never be met and no ring successor exists to
     hint to. The write must settle as failed — callback dropped, no
     pending entry — instead of stranding its quorum state forever. *)
  let rt =
    Runtime.create ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes:3
      ~seed:13 ()
  in
  Runtime.crash_snode rt 1;
  Runtime.crash_snode rt 2;
  let acked = ref false in
  Runtime.put rt ~via:0
    ~on_done:(fun () -> acked := true)
    ~key:"k" ~value:"v" ();
  let e = Runtime.engine rt in
  Runtime.run ~until:(Engine.now e +. 5.0) rt;
  check Alcotest.bool "write not acknowledged" false !acked;
  check Alcotest.int "operation settled, not stranded" 0
    (Runtime.pending_operations rt)

(* --- Fault-free reads ask R replicas --- *)

(* The replica set [via] resolves for [key], read from its view. *)
let replica_set rt ~via key =
  let space = Runtime.space rt in
  let point = Dht_hashes.Hash.string space key in
  let sn =
    List.find (fun s -> s.Runtime.View.sid = via) (Runtime.view rt).snodes
  in
  snd
    (List.find
       (fun (span, _) ->
         Span.start space span <= point && point < Span.stop space span)
       sn.rmap)

(* An rfactor-3, R = W = 2 cluster grown to two vnodes per snode, so
   replica sets differ by key. *)
let grown ?faults ~snodes ~seed () =
  let rt =
    Runtime.create ?faults ~pmin:8
      ~approach:(Runtime.Local { vmin = 4 })
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes ~seed ()
  in
  for i = 1 to (2 * snodes) - 1 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
      ()
  done;
  Runtime.run rt;
  rt

(* Remote [Repl_get] requests, counted by [Network.per_tag]: a coordinator
   answers itself when it holds a replica, and asks R - 1 or R others
   without a fault plan, every other member under one. *)
let test_read_fanout_width () =
  let asks ~faults =
    let faults = if faults then Some (Runtime.Fault.create ~seed:31 ()) else None in
    let rt = grown ?faults ~snodes:8 ~seed:31 () in
    let key i = Printf.sprintf "w%d" i in
    for i = 0 to 39 do
      Runtime.put rt ~via:(i mod 8) ~key:(key i) ~value:(string_of_int i) ()
    done;
    Runtime.run rt;
    let net = Runtime.network rt in
    Network.reset_counters net;
    let expected = ref 0 and wrong = ref 0 in
    for i = 0 to 39 do
      let via = i * 3 mod 8 in
      let set = replica_set rt ~via (key i) in
      let asked = if faults = None then 2 else List.length set in
      expected := !expected + asked - if List.mem via set then 1 else 0;
      Runtime.get rt ~via ~key:(key i) (fun v ->
          if v <> Some (string_of_int i) then incr wrong)
    done;
    Runtime.run rt;
    check Alcotest.int "every get reads its value" 0 !wrong;
    let tag = if faults = None then "repl:get" else "req:repl:get" in
    let sent =
      List.fold_left
        (fun acc (t, m, _) -> if t = tag then acc + m else acc)
        0 (Network.per_tag net)
    in
    (!expected, sent)
  in
  let expected, sent = asks ~faults:false in
  check Alcotest.int "R replicas per get without a fault plan" expected sent;
  let expected, sent = asks ~faults:true in
  check Alcotest.int "rfactor replicas per get under a fault plan" expected
    sent

(* A crash-stopped replica without a fault plan: a get that asked it
   among its R waits out [handoff_timeout], then asks the members it has
   not asked, so every get settles with its value. Without that fallback
   some gets stay pending forever. *)
let test_targeted_read_falls_back () =
  let rt = grown ~snodes:6 ~seed:41 () in
  let key i = Printf.sprintf "f%d" i in
  for i = 0 to 39 do
    Runtime.put rt ~via:(i mod 6) ~key:(key i) ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  Runtime.crash_snode rt 3;
  let live = [| 0; 1; 2; 4; 5 |] in
  let answered = ref 0 and wrong = ref 0 in
  for i = 0 to 39 do
    Runtime.get rt ~via:live.(i mod 5) ~key:(key i) (fun v ->
        incr answered;
        if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  check Alcotest.int "every get settles" 40 !answered;
  check Alcotest.int "with its value" 0 !wrong;
  check Alcotest.int "no operation pending" 0 (Runtime.pending_operations rt)

(* --- Hinted handoff --- *)

let test_hinted_handoff () =
  (* A replica crashes; writes still reach W via ring-successor fallbacks
     holding hints, and the hints drain when the replica restarts. *)
  let faults = Runtime.Fault.create ~seed:9 () in
  let rt =
    Runtime.create ~faults ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes:5
      ~seed:9 ()
  in
  (* Bootstrap placement: every partition lives on snodes [0; 1; 2]. *)
  Runtime.crash_snode rt 2;
  let acked = ref 0 in
  for i = 0 to 9 do
    Runtime.put rt ~via:0
      ~on_done:(fun () -> incr acked)
      ~key:(Printf.sprintf "h%d" i) ~value:(string_of_int i) ()
  done;
  let e = Runtime.engine rt in
  Runtime.run ~until:(Engine.now e +. 0.5) rt;
  check Alcotest.int "writes complete despite the dead replica" 10 !acked;
  let s = Runtime.repl_stats rt in
  check Alcotest.bool "hints parked" true (s.Runtime.hints_stored >= 10);
  Runtime.restart_snode rt 2;
  Runtime.run rt;
  let s = Runtime.repl_stats rt in
  check Alcotest.int "every hint drained" s.Runtime.hints_stored
    s.Runtime.hints_flushed;
  (* The restarted replica now serves reads: ask it directly with R=2. *)
  let wrong = ref 0 in
  for i = 0 to 9 do
    Runtime.get rt ~via:2 ~key:(Printf.sprintf "h%d" i) (fun v ->
        if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  check Alcotest.int "no stale reads after recovery" 0 !wrong;
  audit_ok rt "hinted handoff"

(* A put's hinted-handoff timer stops holding the put once every copy has
   landed, not at its deadline: the quorum state leaves the event queue
   when the put is finalized. [n] puts on a fault-free cluster finalize in
   microseconds; the runtime then reaches the same words while the timers'
   entries wait for [handoff_timeout] (20 ms) as after they have
   dispatched. A timer that kept its closure until then would hold each
   put's quorum state, tens of words per put. *)
let test_hint_timer_lets_go () =
  let n = 200 in
  let rt =
    Runtime.create ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes:4
      ~seed:5 ()
  in
  let acked = ref 0 in
  for i = 1 to n do
    Runtime.put rt ~on_done:(fun () -> incr acked)
      ~key:(Printf.sprintf "k%d" i) ~value:"v" ()
  done;
  let e = Runtime.engine rt in
  Runtime.run ~until:0.01 rt;
  check Alcotest.int "every put acked" n !acked;
  check Alcotest.int "the hint timers still queued" n (Engine.pending e);
  let queued = Obj.reachable_words (Obj.repr rt) in
  Runtime.run rt;
  check Alcotest.int "the hint timers dispatched" 0 (Engine.pending e);
  let drained = Obj.reachable_words (Obj.repr rt) in
  if queued - drained > n then
    Alcotest.failf "%d words more while the timers wait than after (%d puts)"
      (queued - drained) n;
  audit_ok rt "hint timers"

let test_hint_same_key_twice () =
  (* Two overwrites of one key while a replica is down share the single
     (target, key) hint binding: stored/flushed counters stay matched and
     the freshest value survives the drain. *)
  let rt =
    Runtime.create ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes:5
      ~seed:21 ()
  in
  Runtime.crash_snode rt 2;
  let e = Runtime.engine rt in
  Runtime.put rt ~via:0 ~key:"k" ~value:"first" ();
  Runtime.run ~until:(Engine.now e +. 0.2) rt;
  Runtime.put rt ~via:0 ~key:"k" ~value:"second" ();
  Runtime.run ~until:(Engine.now e +. 0.4) rt;
  let s = Runtime.repl_stats rt in
  check Alcotest.int "one hint binding for the twice-hinted key" 1
    s.Runtime.hints_stored;
  Runtime.restart_snode rt 2;
  Runtime.run rt;
  let s = Runtime.repl_stats rt in
  check Alcotest.int "stored and flushed match" s.Runtime.hints_stored
    s.Runtime.hints_flushed;
  let got = ref None in
  Runtime.get rt ~via:2 ~key:"k" (fun v -> got := v);
  Runtime.run rt;
  check Alcotest.(option string) "freshest value survives the drain"
    (Some "second") !got

(* --- Read repair --- *)

let test_read_repair_fires () =
  (* A replica that rejoins stale and answers a read before the
     restart-driven hint flush or digest sync can reach it (one network
     hop vs two) is caught on the read path: the coordinator pushes the
     LWW winner and counts a read repair. *)
  let rt =
    Runtime.create ~rfactor:3 ~read_quorum:3 ~write_quorum:2 ~snodes:5
      ~seed:29 ()
  in
  Runtime.crash_snode rt 2;
  let e = Runtime.engine rt in
  Runtime.put rt ~via:0 ~key:"k" ~value:"fresh" ();
  Runtime.run ~until:(Engine.now e +. 0.2) rt;
  Runtime.restart_snode rt 2;
  let got = ref None in
  Runtime.get rt ~via:0 ~key:"k" (fun v -> got := v);
  Runtime.run rt;
  check Alcotest.(option string) "read returns the winner" (Some "fresh")
    !got;
  let s = Runtime.repl_stats rt in
  check Alcotest.bool "read repair fired" true (s.Runtime.read_repairs >= 1)

(* --- Anti-entropy --- *)

let test_anti_entropy_after_growth () =
  (* Writes interleaved with partition migrations leave replica-table
     cells stranded on snodes that left a replica set; anti-entropy
     routes them home and re-converges every replica. *)
  let rt =
    Runtime.create ~pmin:8
      ~approach:(Runtime.Local { vmin = 4 })
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes:6 ~seed:17 ()
  in
  for i = 0 to 49 do
    Runtime.put rt ~via:(i mod 6) ~key:(Printf.sprintf "a%d" i)
      ~value:(string_of_int i) ()
  done;
  for i = 1 to 11 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 6) ~vnode:(i / 6)) ()
  done;
  Runtime.run rt;
  Runtime.anti_entropy rt;
  Runtime.run rt;
  Runtime.anti_entropy rt;
  Runtime.run rt;
  let wrong = ref 0 in
  for i = 0 to 49 do
    Runtime.get rt ~via:((i + 3) mod 6) ~key:(Printf.sprintf "a%d" i) (fun v ->
        if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  check Alcotest.int "all keys consistent after migrations" 0 !wrong;
  check Alcotest.int "no pending ops" 0 (Runtime.pending_operations rt);
  audit_ok rt "anti-entropy after growth"

(* Reads after growth, pinned before the placement-handover fix. A
   partition that moves while the cluster grows joins its new replica set
   empty, so two fresh replicas can outvote the owner: a quorum get then
   answers [None] for an acked key until anti-entropy runs, although the
   owner's copy ([Runtime.peek]) is intact. 16 snodes, Pmin 32, Vmin 16,
   R = W = 2 of 3; 50k keys put at 32 vnodes, then growth to 64 and a
   quorum get of every 50th key. *)
let test_reads_after_growth_pinned () =
  let snodes = 16 in
  let rt =
    Runtime.create ~pmin:32
      ~approach:(Runtime.Local { vmin = 16 })
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes ~seed:2004 ()
  in
  let grow_to v =
    for i = Runtime.vnode_count rt to v - 1 do
      Runtime.create_vnode rt
        ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes)) ();
      Runtime.run rt
    done
  in
  grow_to 32;
  let key i = Printf.sprintf "key%d" i in
  for i = 0 to 49_999 do
    Runtime.put rt ~via:(i mod snodes) ~key:(key i) ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  grow_to 64;
  let misses = ref 0 and peeked = ref 0 in
  for j = 0 to 999 do
    let i = 50 * j in
    if Runtime.peek rt ~key:(key i) = Some (string_of_int i) then incr peeked;
    Runtime.get rt ~via:(i mod snodes) ~key:(key i) (fun v ->
        if v = None then incr misses)
  done;
  Runtime.run rt;
  check Alcotest.int "grown to 64 vnodes" 64 (Runtime.vnode_count rt);
  check Alcotest.int "every owner copy intact" 1000 !peeked;
  (* A transfer's completion seeds the new replicas with the spans of
     every batch it applied. Seeding only the completing batch's spans
     left the earlier batches' spans to anti-entropy when the commit
     overtook them: 25 of these 1,000 gets missed. *)
  check Alcotest.int "quorum gets missing an acked key" 0 !misses

(* Commit-time replica seeding: one creation on a loaded rfactor-3
   cluster moves partitions, and with no anti-entropy round every replica
   newly assigned to a span must already hold the owner's cells for it.
   Seeding from the anti-entropy snapshot kept from before the transfer
   fails this: the owner's stale frame matches the empty new replicas. *)
let test_growth_seeds_new_replicas () =
  let module Span = Dht_hashspace.Span in
  let snodes = 6 in
  let rt =
    Runtime.create ~pmin:8
      ~approach:(Runtime.Local { vmin = 4 })
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes ~seed:2004 ()
  in
  let space = Runtime.space rt in
  let create i =
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes)) ();
    Runtime.run rt
  in
  for i = 1 to 7 do
    create i
  done;
  for i = 0 to 299 do
    Runtime.put rt ~via:(i mod snodes) ~key:(Printf.sprintf "g%d" i)
      ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  let placement () = (List.hd (Runtime.view rt).Runtime.View.snodes).rmap in
  let before = placement () in
  create 8;
  let view = Runtime.view rt in
  let held sid =
    let sv = List.nth view.Runtime.View.snodes sid in
    sv.replicas @ List.concat_map (fun vn -> vn.Runtime.View.data) sv.vnodes
  in
  let checked = ref 0 and missing = ref 0 in
  List.iter
    (fun (span, set) ->
      let _, old_set =
        List.find
          (fun (s, _) -> Span.contains space s (Span.start space span))
          before
      in
      let owner = List.hd set in
      let cells =
        List.filter
          (fun (k, _) -> Span.contains space span (Dht_hashes.Hash.string space k))
          (held owner)
      in
      List.iter
        (fun r ->
          if not (List.mem r old_set) then
            let copies = held r in
            List.iter
              (fun (k, v) ->
                incr checked;
                if List.assoc_opt k copies <> Some v then incr missing)
              cells)
        set)
    (placement ());
  check Alcotest.bool "new replicas of moved spans were checked" true (!checked > 0);
  check Alcotest.int "owner cells missing on new replicas" 0 !missing

let test_anti_entropy_noop_when_converged () =
  (* On a converged cluster a second round must not move a single cell:
     digests agree everywhere. *)
  let rt =
    Runtime.create ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes:4 ~seed:5
      ()
  in
  for i = 0 to 19 do
    Runtime.put rt ~key:(Printf.sprintf "n%d" i) ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  Runtime.anti_entropy rt;
  Runtime.run rt;
  let before = Runtime.repl_stats rt in
  Runtime.anti_entropy rt;
  Runtime.run rt;
  let after = Runtime.repl_stats rt in
  check Alcotest.int "no cells synced on a converged cluster"
    before.Runtime.sync_cells after.Runtime.sync_cells;
  check Alcotest.int "no orphans on a converged cluster"
    before.Runtime.orphans after.Runtime.orphans

(* --- Duplicated replies --- *)

(* A reply the fabric delivers twice counts once. Three snodes, each a
   replica of every key, with R = W = 3, on a network with no fault plan,
   so no transport framing deduplicates anything. Toward each
   coordinator, every put ack, get reply and range-leg reply from the
   lower of the other two snodes arrives twice, and the higher one's
   arrives [late] later. The coordinator answers itself at once, so a
   duplicate counted as a second replier would meet each quorum before
   [late]. *)
let test_duplicate_reply_counted_once () =
  let rt =
    Runtime.create ~rfactor:3 ~read_quorum:3 ~write_quorum:3 ~snodes:3
      ~seed:17 ()
  in
  for i = 0 to 9 do
    Runtime.put rt ~key:(Printf.sprintf "d%d" i) ~value:"v0" ()
  done;
  Runtime.run rt;
  let late = 5e-3 in
  let doubled = ref 0 in
  Network.set_probe (Runtime.network rt)
    (Some
       (fun ~site:_ ~src ~dst ~tag ->
         match tag with
         | Some ("repl:put-ack" | "repl:get-reply" | "range:reply") ->
             if src = if dst = 0 then 1 else 0 then begin
               incr doubled;
               Network.Twice
             end
             else Network.Defer late
         | _ -> Network.Pass));
  let e = Runtime.engine rt in
  let timed what start =
    let t0 = Engine.now e and took = ref None and before = !doubled in
    start (fun () -> took := Some (Engine.now e -. t0));
    Runtime.run rt;
    if !doubled = before then Alcotest.failf "%s: no reply was doubled" what;
    match !took with
    | None -> Alcotest.failf "%s never completed" what
    | Some dt when dt < late ->
        Alcotest.failf "%s met its quorum after %g s, before its third replier (%g s)"
          what dt late
    | Some _ -> ()
  in
  timed "put" (fun k -> Runtime.put rt ~via:1 ~on_done:k ~key:"d0" ~value:"v1" ());
  let got = ref None in
  timed "get" (fun k ->
      Runtime.get rt ~via:2 ~key:"d0" (fun v ->
          got := v;
          k ()));
  check Alcotest.(option string) "get reads the put" (Some "v1") !got;
  let rows = ref [] in
  let hi = Dht_hashspace.Space.size (Runtime.space rt) in
  timed "range" (fun k ->
      Runtime.range_get rt ~via:0 ~lo:0 ~hi (fun r ->
          rows := r;
          k ()));
  check Alcotest.int "range sees every key" 10 (List.length !rows);
  audit_ok rt "after doubled replies"

(* --- Determinism pin over the replicated protocol --- *)

let traced_replicated_run () =
  let buf = Buffer.create 4096 in
  let trace = Trace.to_buffer Jsonl buf in
  let reg = Registry.create () in
  let faults = Runtime.Fault.create ~drop:0.03 ~jitter:1e-4 ~seed:404 () in
  let rt =
    Runtime.create ~pmin:8
      ~approach:(Runtime.Local { vmin = 4 })
      ~faults ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~metrics:reg ~trace
      ~snodes:6 ~seed:404 ()
  in
  for i = 1 to 11 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 6) ~vnode:(i / 6)) ()
  done;
  Runtime.run rt;
  Runtime.crash_snode rt 1;
  for i = 0 to 49 do
    Runtime.put rt ~via:(i mod 6) ~key:(Printf.sprintf "d%d" i)
      ~value:(string_of_int i) ()
  done;
  let e = Runtime.engine rt in
  Runtime.run ~until:(Engine.now e +. 0.3) rt;
  Runtime.restart_snode rt 1;
  Runtime.run rt;
  Runtime.anti_entropy rt;
  Runtime.run rt;
  for i = 0 to 49 do
    Runtime.get rt ~via:(i mod 6) ~key:(Printf.sprintf "d%d" i) (fun _ -> ())
  done;
  Runtime.run rt;
  Runtime.record_metrics rt reg;
  Trace.close trace;
  (Buffer.contents buf, Registry.csv_rows reg)

let test_replicated_trace_deterministic () =
  let trace1, rows1 = traced_replicated_run () in
  let trace2, rows2 = traced_replicated_run () in
  check Alcotest.bool "trace is non-trivial" true (String.length trace1 > 1000);
  check Alcotest.string "replicated traces byte-identical" trace1 trace2;
  check Alcotest.(list (list string)) "metrics identical" rows1 rows2

let suite =
  [
    QCheck_alcotest.to_alcotest prop_placement;
    QCheck_alcotest.to_alcotest prop_placement_matches_full_walk;
    Alcotest.test_case "placement: crash-domain diversity" `Quick
      test_placement_prefers_other_groups;
    Alcotest.test_case "placement: ring successor" `Quick
      test_placement_successor;
    QCheck_alcotest.to_alcotest prop_lww_total_order;
    QCheck_alcotest.to_alcotest prop_read_your_writes;
    Alcotest.test_case "quorum: configuration validated" `Quick
      test_quorum_validation;
    Alcotest.test_case "quorum: overwrite resolves by LWW" `Quick
      test_quorum_overwrite_lww;
    Alcotest.test_case "quorum: same-tick overwrite not lost" `Quick
      test_same_tick_overwrite;
    Alcotest.test_case "quorum: dead entry snode re-routed" `Quick
      test_dead_via_rerouted;
    Alcotest.test_case "quorum: unmeetable W settles as failure" `Quick
      test_unmeetable_quorum_fails;
    Alcotest.test_case "quorum: a doubled reply counts once" `Quick
      test_duplicate_reply_counted_once;
    Alcotest.test_case "quorum: R replicas per fault-free get" `Quick
      test_read_fanout_width;
    Alcotest.test_case "quorum: a targeted get falls back past a crash"
      `Quick test_targeted_read_falls_back;
    Alcotest.test_case "hinted handoff across a crash" `Quick
      test_hinted_handoff;
    Alcotest.test_case "hinted handoff: same key twice" `Quick
      test_hint_same_key_twice;
    Alcotest.test_case "hint timer lets go of a finalized put" `Quick
      test_hint_timer_lets_go;
    Alcotest.test_case "read repair catches a stale rejoin" `Quick
      test_read_repair_fires;
    Alcotest.test_case "anti-entropy repairs migrations" `Quick
      test_anti_entropy_after_growth;
    Alcotest.test_case "reads after growth: defect pinned" `Slow
      test_reads_after_growth_pinned;
    Alcotest.test_case "growth seeds new replicas" `Quick
      test_growth_seeds_new_replicas;
    Alcotest.test_case "anti-entropy idle when converged" `Quick
      test_anti_entropy_noop_when_converged;
    Alcotest.test_case "replicated trace deterministic" `Quick
      test_replicated_trace_deterministic;
  ]
