(* Scalable prefix routing: finger geometry, the bounded routing cache
   (hole-free LRU pair-folds), derived key populations, and the headline
   property — lookups issued immediately after churn, against stale
   bounded caches, still converge within O(log N) hops while no cache
   ever exceeds its entry bound. The property runs over 100 seeds. *)

module Runtime = Dht_snode.Runtime
module Route = Dht_snode.Route
module Engine = Dht_event_sim.Engine
module Fault = Dht_event_sim.Fault
module Fingers = Dht_cluster.Fingers
module Keygen = Dht_workload.Keygen
module Rng = Dht_prng.Rng
open Dht_core
open Dht_hashspace

let check = Alcotest.check
let bits = Space.bits Space.default

let test_finger_geometry () =
  check Alcotest.int "1 snode floors at level 1" 1
    (Fingers.level ~bits ~snodes:1);
  check Alcotest.int "100 snodes" 7 (Fingers.level ~bits ~snodes:100);
  check Alcotest.int "1000 snodes" 10 (Fingers.level ~bits ~snodes:1000);
  check Alcotest.int "10000 snodes" 14 (Fingers.level ~bits ~snodes:10000);
  check Alcotest.int "exact powers stay exact" 10
    (Fingers.level ~bits ~snodes:1024);
  check Alcotest.int "level clamps to the space" bits
    (Fingers.level ~bits ~snodes:max_int);
  (* Regions partition the point set and stewards stay in range. *)
  let level = Fingers.level ~bits ~snodes:100 in
  check Alcotest.int "region of 0" 0 (Fingers.region ~bits ~level 0);
  check Alcotest.int "region of the top point"
    ((1 lsl level) - 1)
    (Fingers.region ~bits ~level (Space.size Space.default - 1));
  for region = 0 to (1 lsl level) - 1 do
    let sd = Fingers.steward ~snodes:100 ~region in
    check Alcotest.bool "steward in range" true (sd >= 0 && sd < 100);
    check Alcotest.int "steward deterministic" sd
      (Fingers.steward ~snodes:100 ~region)
  done

let test_population () =
  (* Derived keys: a million-key population costs nothing and two
     populations with the same salt agree key-for-key. *)
  let a = Keygen.Population.create ~size:1_000_000 () in
  let b = Keygen.Population.create ~size:1_000_000 () in
  check Alcotest.int "size" 1_000_000 (Keygen.Population.size a);
  check Alcotest.string "first member" "pop-0" (Keygen.Population.nth a 0);
  check Alcotest.string "members agree across instances"
    (Keygen.Population.nth a 999_999)
    (Keygen.Population.nth b 999_999);
  let rng = Rng.of_int 7 and rng' = Rng.of_int 7 in
  for _ = 1 to 100 do
    check Alcotest.string "sampling is seed-deterministic"
      (Keygen.Population.sample a rng)
      (Keygen.Population.sample b rng')
  done;
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Keygen.Population.nth: index") (fun () ->
      ignore (Keygen.Population.nth a 1_000_000))

(* The eviction fold, driven through [Route.learn] itself: random learns
   of random-level spans into one bounded cache (cap >= Pmin). After every
   learn the cache still covers the whole space, holds at most [route_cap]
   entries (exactly that many when the insertion overflowed it, each fold
   dropping one entry), and folded coldest first: no sibling pair left in
   it is colder than a pair the learn folded. A pair's warmth is its
   fresher child's stamp; a fold hands it to the parent it installs, so
   the pairs a learn folded are the spans its result holds that the
   learn's own insertion (replayed on a plain [Point_map]) did not. *)
let prop_fold_keeps_coverage =
  let space = Space.default and pmin = 8 in
  let bootstrap =
    ( List.init pmin (fun i -> Span.make space ~level:3 ~index:i),
      Vnode_id.make ~snode:0 ~vnode:0 )
  in
  let map_of entries =
    let m = Point_map.create space in
    List.iter (fun (s, v) -> Point_map.add m s v) entries;
    m
  in
  let learn_gen =
    QCheck.Gen.(
      map3
        (fun level raw vnode ->
          (Span.make space ~level ~index:(raw land ((1 lsl level) - 1)),
           Vnode_id.make ~snode:0 ~vnode))
        (int_range 0 10) (int_bound 1023) (int_bound 7))
  in
  let print (cap, learns) =
    Printf.sprintf "cap %d: %s" cap
      (String.concat "; "
         (List.map
            (fun (s, v) -> Format.asprintf "%a -> %d" Span.pp s v.Vnode_id.vnode)
            learns))
  in
  QCheck.Test.make ~name:"pair-folds preserve coverage" ~count:300
    (QCheck.make ~print
       QCheck.Gen.(pair (int_range pmin 24) (list_size (int_range 1 60) learn_gen)))
    (fun (route_cap, learns) ->
      let r =
        Route.create ~space ~pmin ~snodes:1 ~route_cap ~max_hops:4 ~bootstrap
      in
      List.for_all
        (fun (span, vid) ->
          let inserted = map_of (Route.snapshot r 0) in
          Point_map.learn inserted span vid;
          let before = Point_map.spans inserted in
          let evictions () = (Route.stats r).Route.rcs_evictions in
          let ev0 = evictions () in
          Route.learn r 0 span vid;
          let after = Route.snapshot r 0 in
          let n = List.length after and n0 = List.length before in
          let warmth parent =
            let lo, hi = Span.split space parent in
            Int.max (Route.stamp r 0 lo) (Route.stamp r 0 hi)
          in
          let folded =
            List.filter_map
              (fun (s, _) ->
                if List.exists (Span.equal s) before then None
                else Some (Route.stamp r 0 s))
              after
          in
          let coldest_first =
            match folded with
            | [] -> true
            | _ ->
                let w = List.fold_left Int.max 0 folded in
                let ok = ref true in
                Point_map.iter_pairs (map_of after) (fun parent _ _ ->
                    if warmth parent < w then ok := false);
                !ok
          in
          Coverage.check space (List.map fst after) = Ok ()
          && n <= route_cap
          && n = Int.min route_cap n0
          && evictions () - ev0 = n0 - n
          && coldest_first)
        learns)

(* Shared churn harness: grow a cluster with bounded routing, then crash
   a snode, restart it, and land a vnode join — all inside the window the
   lookups are issued in, so they run against stale caches. *)
let churned_lookups ?(refresh = true) ~snodes ~vnodes ~route_cap ~max_hops ~lookups
    ~seed () =
  let faults = Some (Fault.create ~drop:0. ~seed ()) in
  let rt =
    Runtime.create ~pmin:8
      ~approach:(Runtime.Local { vmin = 4 })
      ?faults ~route_cap ~max_hops ~snodes ~seed ()
  in
  for i = 1 to vnodes - 1 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
      ()
  done;
  Runtime.run rt;
  (* One refresh round, a microsecond after the growth settles. *)
  let engine = Runtime.engine rt in
  if refresh then begin
    Runtime.arm_route_refresh rt ~interval:1e-6
      ~until:(Engine.now engine +. 1.5e-6);
    Runtime.run rt
  end;
  let t0 = Engine.now engine +. 0.01 in
  let victim = 1 mod snodes in
  Engine.at engine ~time:t0 (fun () -> Runtime.crash_snode rt victim);
  Engine.at engine ~time:(t0 +. 0.02) (fun () ->
      Runtime.restart_snode rt victim);
  Engine.at engine ~time:(t0 +. 0.01) (fun () ->
      Runtime.create_vnode rt
        ~id:(Vnode_id.make ~snode:(vnodes mod snodes) ~vnode:(vnodes / snodes))
        ());
  let pop = Keygen.Population.create ~size:100_000 () in
  let krng = Rng.of_int (seed + 13) in
  let answered = ref 0 in
  let hops0 = Runtime.route_hops rt in
  for i = 1 to lookups do
    let key = Keygen.Population.sample pop krng in
    (* From just after the restart onward: stale caches everywhere — the
       victim's was rebuilt from bootstrap, everyone else holds entries
       the join invalidates. *)
    Engine.at engine
      ~time:(t0 +. 0.021 +. (float_of_int i *. 1e-4))
      (fun () ->
        Runtime.get rt ~via:(i mod snodes) ~key (fun _ -> incr answered))
  done;
  Runtime.run rt;
  let window = Runtime.route_hops rt in
  Array.iteri (fun h c -> window.(h) <- c - hops0.(h)) window;
  (rt, window, !answered)

let test_churn_convergence_100_seeds () =
  let snodes = 12 and vnodes = 12 and route_cap = 16 and lookups = 40 in
  (* The hop bound under test: c·log2 N + k with c = 2, k = 8. [max_hops]
     is far above it so the bound is measured, not enforced by backoff
     truncation. Convergence is a tail property: a walk that lands in a
     stale-cache cycle mid-churn legitimately burns hops until the
     random-restart backoff rescues it, so the bound holds for at least
     99% of lookups in aggregate rather than for every single walk. *)
  let bound =
    int_of_float (2. *. (log (float_of_int snodes) /. log 2.)) + 8
  in
  let total = ref 0 and over = ref 0 in
  for seed = 0 to 99 do
    let rt, window, answered =
      churned_lookups ~snodes ~vnodes ~route_cap ~max_hops:64 ~lookups ~seed ()
    in
    check Alcotest.int
      (Printf.sprintf "seed %d: every lookup answered" seed)
      lookups answered;
    Array.iteri
      (fun h c ->
        if c > 0 then begin
          total := !total + c;
          if h > bound then over := !over + c
        end)
      window;
    (* Occupancy never exceeded the bound, on any snode, at any time. *)
    let stats = Runtime.route_cache_stats rt in
    check Alcotest.bool
      (Printf.sprintf "seed %d: peak occupancy %d within cap" seed
         stats.Runtime.rcs_peak)
      true
      (stats.Runtime.rcs_peak <= route_cap);
    for sid = 0 to snodes - 1 do
      check Alcotest.bool
        (Printf.sprintf "seed %d: snode %d cache within cap" seed sid)
        true
        (Runtime.route_cache_entries rt sid <= route_cap)
    done;
    (* The audit re-checks coverage and the cap from the outside. *)
    (match Dht_check.Invariants.(to_strings (check_runtime rt)) with
    | [] -> ()
    | l -> Alcotest.failf "seed %d: audit: %s" seed (String.concat "; " l))
  done;
  check Alcotest.bool
    (Printf.sprintf "%d of %d lookups over the %d-hop bound (≤1%% allowed)"
       !over !total bound)
    true
    (float_of_int !over <= 0.01 *. float_of_int !total)

(* Stewards stay exact with no refresh round: every commit files what it
   moved with them, and the owners re-file a restarted steward. After the
   churn harness (a join that lands while snode 1 is down, then its
   restart) and its lookups, every steward whose regions fit under the
   cap names the owner of every point of its regions. *)
let test_stewards_exact () =
  let snodes = 16 and vnodes = 48 and route_cap = 128 in
  let rt, _, answered =
    churned_lookups ~refresh:false ~snodes ~vnodes ~route_cap ~max_hops:64
      ~lookups:200 ~seed:7 ()
  in
  check Alcotest.int "every lookup answered" 200 answered;
  let view = Runtime.view rt and space = Runtime.space rt in
  let level = Runtime.route_level rt in
  let parts =
    List.concat_map
      (fun (sv : Runtime.View.snode_view) ->
        List.concat_map
          (fun (v : Runtime.View.vnode_view) -> List.map (fun s -> (s, v.vid)) v.spans)
          sv.vnodes)
      view.snodes
  in
  let region_span index = Span.make space ~level ~index in
  let stewarded sd =
    List.filter
      (fun region -> Fingers.steward ~snodes ~region = sd)
      (List.init (1 lsl level) Fun.id)
  in
  (* What an exact map of [sd]'s regions needs: each region's partitions,
     plus one coverage entry per level above each region. *)
  let need sd =
    List.fold_left
      (fun n region ->
        let r = region_span region in
        n + level + List.length (List.filter (fun (p, _) -> Span.overlap p r) parts))
      0 (stewarded sd)
  in
  check Alcotest.bool "the restarted snode stewards a region" true
    (stewarded 1 <> []);
  let fitting = ref 0 in
  List.iter
    (fun (sv : Runtime.View.snode_view) ->
      let sd = sv.sid in
      if need sd <= route_cap then begin
        incr fitting;
        List.iter
          (fun region ->
            let r = region_span region in
            List.iter
              (fun (e, (ev : Vnode_id.t)) ->
                if Span.overlap e r then
                  List.iter
                    (fun (p, (owner : Vnode_id.t)) ->
                      if Span.overlap p e && Span.overlap p r then
                        if not (Vnode_id.equal owner ev) then
                          Alcotest.failf "steward %d: %s names %s, owner %s" sd
                            (Format.asprintf "%a" Span.pp e)
                            (Vnode_id.to_string ev) (Vnode_id.to_string owner))
                    parts)
              sv.cache)
          (stewarded sd)
      end)
    view.snodes;
  check Alcotest.int "every steward's regions fit" snodes !fitting;
  check Alcotest.bool "caches folded" true
    ((Runtime.route_cache_stats rt).Runtime.rcs_evictions > 0)

let test_legacy_unbounded_by_default () =
  (* route_cap = 0 keeps the legacy path: no probes counted, no
     evictions, caches free to grow past any bound. *)
  let rt =
    Runtime.create ~pmin:8 ~approach:(Runtime.Local { vmin = 4 }) ~snodes:4
      ~seed:11 ()
  in
  for i = 1 to 15 do
    Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 4) ~vnode:(i / 4)) ()
  done;
  Runtime.run rt;
  let stats = Runtime.route_cache_stats rt in
  check Alcotest.int "no hits counted" 0 stats.Runtime.rcs_hits;
  check Alcotest.int "no misses counted" 0 stats.Runtime.rcs_misses;
  check Alcotest.int "no evictions" 0 stats.Runtime.rcs_evictions;
  check Alcotest.int "legacy default max_hops" 4 (Runtime.max_hops rt);
  check Alcotest.int "cap reads back as 0" 0 (Runtime.route_cap rt)

let test_create_validation () =
  Alcotest.check_raises "cap below pmin refused"
    (Invalid_argument "Runtime.create: route_cap must be 0 or >= pmin")
    (fun () ->
      ignore
        (Runtime.create ~pmin:32 ~route_cap:16 ~snodes:2 ~seed:0 ()));
  Alcotest.check_raises "max_hops floor"
    (Invalid_argument "Runtime.create: max_hops < 1") (fun () ->
      ignore (Runtime.create ~max_hops:0 ~snodes:2 ~seed:0 ()));
  (* The hop table is sized by the limit, so a huge one must be refused
     up front rather than exhaust memory. *)
  Alcotest.check_raises "max_hops ceiling"
    (Invalid_argument "Runtime.create: max_hops > 1024") (fun () ->
      ignore (Runtime.create ~max_hops:1025 ~snodes:2 ~seed:0 ()));
  check Alcotest.int "the ceiling itself is accepted" 1024
    (Runtime.max_hops (Runtime.create ~max_hops:1024 ~snodes:2 ~seed:0 ()))

let test_routing_scaling_smoke () =
  (* The sweep entry end-to-end at a small size: gates must hold and the
     battery must be clean. *)
  let r =
    Dht_experiments.Extensions.routing_scaling ~snodes:24 ~ops:600
      ~keys:50_000 ~seed:5 ()
  in
  let open Dht_experiments.Extensions in
  check Alcotest.bool "window saw ops" true (r.rs_ops > 500);
  let bound = 2. *. (log (float_of_int r.rs_snodes) /. log 2.) in
  check Alcotest.bool
    (Printf.sprintf "p99 hops %.1f within 2·log2 N = %.1f" r.rs_hops_p99 bound)
    true (r.rs_hops_p99 <= bound);
  check Alcotest.bool "cache bounded" true
    (r.rs_cache_entries_max <= r.rs_cap);
  check Alcotest.bool "messages per op finite and positive" true
    (r.rs_msgs_per_op > 0. && Float.is_finite r.rs_msgs_per_op);
  check (Alcotest.list Alcotest.string) "battery clean" [] r.rs_findings;
  check (Alcotest.list Alcotest.string) "durability clean" [] r.rs_linear

(* The n100 sweep point of BENCH_runtime.json, seed 2004, pinned. Before
   origins distrusted entries shallower than their deepest learned
   placement and stewards stayed exact, it had a walk of 31 hops against
   its 32-hop limit, folded 14,140 times and paid 34.504 messages per op
   (6.6 at 1k snodes). Any routing change moves these numbers and must
   update them here. *)
let test_routing_cliff_pinned () =
  let r = Dht_experiments.Extensions.routing_scaling ~snodes:100 ~seed:2004 () in
  let open Dht_experiments.Extensions in
  check Alcotest.int "hops_max (max_hops 32)" 3 r.rs_hops_max;
  check Alcotest.int "evictions" 12_522 r.rs_cache.Runtime.rcs_evictions;
  check Alcotest.string "msgs_per_op" "5.943"
    (Printf.sprintf "%.3f" r.rs_msgs_per_op)

(* Without churn every walk is origin, steward, owner: at most one
   diversion, at most three hops, however stale the origin's entry. *)
let test_two_hop_walks () =
  let r =
    Dht_experiments.Extensions.routing_scaling ~snodes:100 ~churn:false ~seed:2004 ()
  in
  let open Dht_experiments.Extensions in
  check Alcotest.bool (Printf.sprintf "hops_max %d <= 3" r.rs_hops_max) true
    (r.rs_hops_max <= 3);
  check (Alcotest.list Alcotest.string) "battery clean" [] r.rs_findings;
  check (Alcotest.list Alcotest.string) "durability clean" [] r.rs_linear

let suite =
  [
    Alcotest.test_case "finger geometry" `Quick test_finger_geometry;
    Alcotest.test_case "derived key population" `Quick test_population;
    QCheck_alcotest.to_alcotest prop_fold_keeps_coverage;
    Alcotest.test_case "churn convergence over 100 seeds" `Slow
      test_churn_convergence_100_seeds;
    Alcotest.test_case "stewards exact after a join and a restart" `Quick
      test_stewards_exact;
    Alcotest.test_case "route_cap=0 is the legacy path" `Quick
      test_legacy_unbounded_by_default;
    Alcotest.test_case "create validates routing params" `Quick
      test_create_validation;
    Alcotest.test_case "scaling sweep smoke" `Slow test_routing_scaling_smoke;
    Alcotest.test_case "routing cliff pinned (n100, seed 2004)" `Slow
      test_routing_cliff_pinned;
    Alcotest.test_case "no-churn walks take at most 3 hops (n100)" `Slow
      test_two_hop_walks;
  ]
