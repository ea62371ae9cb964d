(* Tests for the active load-balancing subsystem: the pure gossip /
   directory modules in Dht_balance, the runtime's gossip convergence
   and crash semantics, and an end-to-end hot-partition swap run. *)

open Dht_core
module Runtime = Dht_snode.Runtime
module Engine = Dht_event_sim.Engine
module Summary = Dht_balance.Summary
module Gossip = Dht_balance.Gossip
module Directory = Dht_balance.Directory
module Policy = Dht_balance.Policy

let check = Alcotest.check

let summary ?(heat = 1.0) ?(queue = 0) ?(partitions = 8) ~origin ~version ()
    =
  Summary.make ~origin ~version ~heat ~queue ~partitions ~stamped:0.

(* --- Pure modules --- *)

let test_gossip_version_fence () =
  let g = Gossip.create () in
  check Alcotest.bool "first installs" true
    (Gossip.note g (summary ~origin:3 ~version:5 ()));
  check Alcotest.bool "older rejected" false
    (Gossip.note g (summary ~origin:3 ~version:4 ()));
  check Alcotest.bool "equal rejected" false
    (Gossip.note g (summary ~origin:3 ~version:5 ~heat:99. ()));
  check Alcotest.bool "fresher installs" true
    (Gossip.note g (summary ~origin:3 ~version:6 ~heat:2. ()));
  (match Gossip.find g 3 with
  | Some s ->
      check Alcotest.int "kept freshest" 6 s.Summary.version;
      check (Alcotest.float 0.) "freshest heat" 2. s.Summary.heat
  | None -> Alcotest.fail "entry vanished");
  check Alcotest.int "merge counts installs" 2
    (Gossip.merge g
       [
         summary ~origin:1 ~version:1 ();
         summary ~origin:3 ~version:2 ();
         (* stale: fenced *)
         summary ~origin:2 ~version:7 ();
       ]);
  check Alcotest.int "size" 3 (List.length (Gossip.entries g));
  Gossip.reset g;
  check Alcotest.int "reset forgets" 0 (List.length (Gossip.entries g))

let test_gossip_staleness () =
  let g = Gossip.create () in
  ignore (Gossip.note g (summary ~origin:0 ~version:10 ()));
  ignore (Gossip.note g (summary ~origin:1 ~version:7 ()));
  let truth = function 0 -> 10 | 1 -> 9 | _ -> 4 in
  let missing, lag =
    Gossip.staleness g ~origins:[ 0; 1; 2 ] ~version_of:truth
  in
  check Alcotest.int "origin 2 never heard of" 1 missing;
  check Alcotest.int "largest version gap" 2 lag

let test_directory_classify_and_pair () =
  let p = Policy.default in
  let d = Directory.create () in
  let note ~origin ~heat ~partitions =
    ignore (Directory.note d (summary ~origin ~version:1 ~heat ~partitions ()))
  in
  (* Average heat 1.0; 0 and 4 heavy, 2 and 3 light, 1 in the dead band. *)
  note ~origin:0 ~heat:2.0 ~partitions:8;
  note ~origin:1 ~heat:1.0 ~partitions:8;
  note ~origin:2 ~heat:0.2 ~partitions:8;
  note ~origin:3 ~heat:0.3 ~partitions:8;
  note ~origin:4 ~heat:1.5 ~partitions:8;
  let light, heavy = Directory.classify d p in
  check (Alcotest.list Alcotest.int) "heavy by descending heat" [ 0; 4 ]
    (List.map (fun (s : Summary.t) -> s.Summary.origin) heavy);
  check (Alcotest.list Alcotest.int) "light by ascending heat" [ 2; 3 ]
    (List.map (fun (s : Summary.t) -> s.Summary.origin) light);
  let pairs = Directory.pair ~light ~heavy in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "k-th heaviest with k-th lightest"
    [ (0, 2); (4, 3) ]
    (List.map
       (fun ((h : Summary.t), (l : Summary.t)) ->
         (h.Summary.origin, l.Summary.origin))
       pairs)

let test_directory_single_partition_never_heavy () =
  (* A snode with one partition has nothing it could give up: the
     classifier must never mark it heavy, however hot it runs. *)
  let d = Directory.create () in
  ignore
    (Directory.note d (summary ~origin:0 ~version:1 ~heat:100. ~partitions:1 ()));
  ignore
    (Directory.note d (summary ~origin:1 ~version:1 ~heat:0.1 ~partitions:8 ()));
  let _, heavy = Directory.classify d Policy.default in
  check (Alcotest.list Alcotest.int) "no heavy" []
    (List.map (fun (s : Summary.t) -> s.Summary.origin) heavy)

let test_policy_validate () =
  Policy.validate Policy.default;
  Alcotest.check_raises "fanout"
    (Invalid_argument "Balance.Policy: fanout < 1") (fun () ->
      Policy.validate { Policy.default with fanout = 0 });
  Alcotest.check_raises "emergency below heavy"
    (Invalid_argument "Balance.Policy: emergency_factor below heavy_ratio")
    (fun () ->
      Policy.validate { Policy.default with emergency_factor = 1.1 })

(* --- Runtime gossip convergence --- *)

(* A small cluster driven for a bounded number of gossip rounds. *)
let gossip_cluster ~snodes ~seed ~policy =
  let rt =
    Runtime.create ~pmin:8
      ~approach:(Runtime.Local { vmin = 4 })
      ~balance:policy ~snodes ~seed ()
  in
  for i = 1 to (2 * snodes) - 1 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
      ()
  done;
  Runtime.run rt;
  rt

(* Readers of [Runtime.lb_views], which lists the snodes in order. *)
let version_of views sid =
  let _, version, _ = List.nth views sid in
  version

let view_of views sid =
  let _, _, entries = List.nth views sid in
  entries

let view_staleness views ~snodes (entries : Summary.t list) =
  let origins = List.init snodes Fun.id in
  let missing =
    List.length
      (List.filter
         (fun o ->
           not
             (List.exists (fun (s : Summary.t) -> s.Summary.origin = o) entries))
         origins)
  in
  let lag =
    List.fold_left
      (fun acc (s : Summary.t) ->
        max acc (version_of views s.Summary.origin - s.Summary.version))
      0 entries
  in
  (missing, lag)

let test_gossip_convergence_100_seeds () =
  (* Across 100 seeds: after a bounded run of push-pull rounds, every
     live snode's view (a) has heard from every origin and (b) is at
     most one gossip round stale — each round bumps the origin's version
     by one, so lag <= 1 is exactly "within one round". Version stamps
     never regress between segments. *)
  let snodes = 5 in
  let policy =
    (* Full fanout: the last round's direct pushes reach everyone, which
       is what makes the one-round staleness bound exact. *)
    { Policy.default with fanout = snodes - 1 }
  in
  for seed = 1 to 100 do
    let rt = gossip_cluster ~snodes ~seed ~policy in
    let engine = Runtime.engine rt in
    Runtime.arm_balancer rt
      ~until:(Engine.now engine +. (10. *. policy.Policy.gossip_interval));
    Runtime.run rt;
    let first = Runtime.lb_views rt in
    List.iter
      (fun (sid, _, entries) ->
        let missing, lag = view_staleness first ~snodes entries in
        if missing > 0 then
          Alcotest.failf "seed %d: snode %d missing %d origins" seed sid
            missing;
        if lag > 1 then
          Alcotest.failf "seed %d: snode %d lags %d rounds" seed sid lag)
      first;
    (* Second segment: every (observer, origin) version moves forward. *)
    Runtime.arm_balancer rt
      ~until:(Engine.now engine +. (5. *. policy.Policy.gossip_interval));
    Runtime.run rt;
    List.iter
      (fun (sid, _, entries) ->
        let before = view_of first sid in
        List.iter
          (fun (s : Summary.t) ->
            match
              List.find_opt
                (fun (b : Summary.t) -> b.Summary.origin = s.Summary.origin)
                before
            with
            | Some b ->
                if s.Summary.version < b.Summary.version then
                  Alcotest.failf
                    "seed %d: snode %d regressed origin %d: %d -> %d" seed
                    sid s.Summary.origin b.Summary.version s.Summary.version
            | None ->
                Alcotest.failf "seed %d: snode %d forgot origin %d" seed sid
                  s.Summary.origin)
          entries)
      (Runtime.lb_views rt)
  done

(* --- Crash semantics --- *)

let test_crash_resets_soft_state_keeps_version () =
  let snodes = 4 in
  let rt = gossip_cluster ~snodes ~seed:7 ~policy:Policy.default in
  let engine = Runtime.engine rt in
  Runtime.arm_balancer rt ~until:(Engine.now engine +. 0.1);
  Runtime.run rt;
  let victim = 1 in
  let v_before = version_of (Runtime.lb_views rt) victim in
  Alcotest.(check bool) "victim gossiped" true (v_before > 0);
  Alcotest.(check bool)
    "victim view populated" true
    (view_of (Runtime.lb_views rt) victim <> []);
  Runtime.crash_snode rt victim;
  Alcotest.(check (list reject))
    "gossip view is soft state: reset on crash" []
    (view_of (Runtime.lb_views rt) victim);
  check Alcotest.int "version counter is durable" v_before
    (version_of (Runtime.lb_views rt) victim);
  Runtime.restart_snode rt victim;
  Runtime.run rt;
  Runtime.arm_balancer rt ~until:(Engine.now engine +. 0.3);
  Runtime.run rt;
  Alcotest.(check bool)
    "restarted summary supersedes pre-crash gossip" true
    (version_of (Runtime.lb_views rt) victim > v_before)

let test_heat_cells_reset_on_crash () =
  (* Regression: per-partition heat EWMA cells are soft state like the
     RTO estimators — a crash must drop the crashed snode's cells (its
     counters restart from zero) while every other snode's survive. *)
  let snodes = 4 in
  let rt =
    Runtime.create ~pmin:8
      ~approach:(Runtime.Local { vmin = 4 })
      ~heat:true ~snodes ~seed:3 ()
  in
  for i = 1 to (2 * snodes) - 1 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
      ()
  done;
  Runtime.run rt;
  for k = 1 to 400 do
    Runtime.put rt ~via:(k mod snodes)
      ~key:(Printf.sprintf "key%d" k)
      ~value:"v" ()
  done;
  Runtime.run rt;
  let victim = 2 in
  let owned_by sid =
    List.filter
      (fun (r : Runtime.heat_row) -> r.Runtime.hr_owner = sid)
      (Runtime.heat_rows rt)
  in
  let hot_victim = owned_by victim and hot_other = owned_by 0 in
  Alcotest.(check bool) "victim heated before crash" true (hot_victim <> []);
  Alcotest.(check bool) "snode 0 heated before crash" true (hot_other <> []);
  Runtime.crash_snode rt victim;
  check Alcotest.int "victim's cells dropped" 0 (List.length (owned_by victim));
  check Alcotest.int "other snodes' cells survive"
    (List.length hot_other)
    (List.length (owned_by 0))

(* --- End to end --- *)

let test_skew_swaps_reduce_gini () =
  (* A scaled-down acceptance run: same seeded Zipf stream with the
     balancer off then on. Swaps must fire, cut the per-snode heat Gini,
     keep the whole invariant battery green and lose no acked write. *)
  let r =
    Dht_experiments.Extensions.skew ~snodes:6 ~vnodes:12 ~keys:400
      ~rate:5000. ~duration:0.8 ~seed:11 ()
  in
  let open Dht_experiments.Extensions in
  Alcotest.(check bool)
    "balancer executed swaps" true
    (r.sk_on.sk_lb.Runtime.lbs_transfers > 0);
  Alcotest.(check bool)
    "gini reduced" true
    (r.sk_on.sk_gini < r.sk_off.sk_gini);
  List.iter
    (fun (name, (x : skew_run)) ->
      check (Alcotest.list Alcotest.string)
        (name ^ ": invariant battery") [] x.sk_findings;
      check (Alcotest.list Alcotest.string)
        (name ^ ": linearizability") [] x.sk_linear;
      check Alcotest.int (name ^ ": lost acked writes") 0 x.sk_lost)
    [ ("off", r.sk_off); ("on", r.sk_on) ]

let suite =
  [
    Alcotest.test_case "gossip version fence" `Quick test_gossip_version_fence;
    Alcotest.test_case "gossip staleness oracle" `Quick test_gossip_staleness;
    Alcotest.test_case "directory classify + pair" `Quick
      test_directory_classify_and_pair;
    Alcotest.test_case "single partition never heavy" `Quick
      test_directory_single_partition_never_heavy;
    Alcotest.test_case "policy validation" `Quick test_policy_validate;
    Alcotest.test_case "gossip converges within one round (100 seeds)" `Slow
      test_gossip_convergence_100_seeds;
    Alcotest.test_case "crash resets view, keeps version" `Quick
      test_crash_resets_soft_state_keeps_version;
    Alcotest.test_case "heat cells reset on crash" `Quick
      test_heat_cells_reset_on_crash;
    Alcotest.test_case "skewed run: swaps cut gini, battery green" `Slow
      test_skew_swaps_reduce_gini;
  ]
