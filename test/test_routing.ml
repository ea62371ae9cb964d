(* Scalable prefix routing: finger geometry, the bounded routing cache
   (the bootstrap placement plus the snode's steward share), derived key
   populations, and the headline property — lookups issued immediately
   after churn, against stale bounded caches, still converge within
   O(log N) hops while no cache holds more outside its steward regions
   than the geometry allows. The property runs over 100 seeds. *)

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

(* The cache entries that intersect none of [regions] (region numbers at
   the finger [level]). *)
let outside ~level regions entries =
  List.filter (fun (e, _) -> not (Fingers.meets ~level regions e)) entries

(* A bounded cache holds the bootstrap placement refined only inside the
   regions its snode stewards: after random learns of random-level spans,
   each snode's cache equals a plain map that starts from the bootstrap
   placement and learns only the spans that intersect those regions. Its
   entries outside them are bootstrap spans and the fragments that
   learning inside a region splits off, at most one per level between
   the bootstrap's and the finger level per region. *)
let prop_steward_share_only =
  let space = Space.default and snodes = 8 in
  let level = Fingers.level ~bits ~snodes in
  let regions = Fingers.regions ~snodes ~level in
  let bootstrap =
    ( List.init 2 (fun index -> Span.make space ~level:1 ~index),
      Vnode_id.make ~snode:0 ~vnode:0 )
  in
  let learn_gen =
    QCheck.Gen.(
      map3
        (fun level raw vnode ->
          (Span.make space ~level ~index:(raw land ((1 lsl level) - 1)),
           Vnode_id.make ~snode:(vnode land 7) ~vnode))
        (int_range 0 10) (int_bound 1023) (int_bound 63))
  in
  let print learns =
    String.concat "; "
      (List.map
         (fun (s, v) -> Format.asprintf "%a -> %s" Span.pp s (Vnode_id.to_string v))
         learns)
  in
  QCheck.Test.make ~name:"a bounded cache holds only bootstrap and steward-region entries"
    ~count:200
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 60) learn_gen))
    (fun learns ->
      let r =
        Route.create ~space ~pmin:2 ~snodes ~route_cap:8 ~max_hops:4 ~bootstrap
      in
      List.iter
        (fun (span, vid) ->
          for sid = 0 to snodes - 1 do
            Route.learn r sid span vid
          done)
        learns;
      List.for_all
        (fun sid ->
          let mine = regions.(sid) in
          let oracle = Point_map.create space in
          List.iter (fun s -> Point_map.add oracle s (snd bootstrap)) (fst bootstrap);
          List.iter
            (fun (span, vid) ->
              if Fingers.meets ~level mine span then
                Point_map.learn oracle span vid)
            learns;
          let cache = Route.snapshot r sid in
          cache = Point_map.to_list oracle
          && List.length (outside ~level mine cache)
             <= 2 + ((level - 1) * List.length mine))
        (List.init snodes Fun.id))

(* A placement the cache leaves out still raises the snode's trust
   level: after snode 0 of eight learns a level-9 span outside its
   regions, the level-5 entry it keeps inside them is no longer trusted. *)
let test_left_out_placement_raises_trust () =
  let space = Space.default and snodes = 8 in
  let level = Fingers.level ~bits ~snodes in
  let vid s = Vnode_id.make ~snode:s ~vnode:0 in
  let r =
    Route.create ~space ~pmin:2 ~snodes ~route_cap:8 ~max_hops:4
      ~bootstrap:(List.init 2 (fun index -> Span.make space ~level:1 ~index), vid 0)
  in
  let mine = (Fingers.regions ~snodes ~level).(0) in
  let inside = Span.make space ~level:5 ~index:(List.hd mine lsl (5 - level)) in
  let far =
    List.find
      (fun index ->
        not (Fingers.meets ~level mine (Span.make space ~level:9 ~index)))
      (List.init 512 Fun.id)
  in
  Route.learn r 0 inside (vid 3);
  let point = Span.start space inside in
  ignore (Route.next_hop r ~sid:0 ~hops:0 point);
  check Alcotest.int "trusted at level 5" 1 (Route.stats r).Route.rcs_hits;
  let before = Route.snapshot r 0 in
  Route.learn r 0 (Span.make space ~level:9 ~index:far) (vid 4);
  check Alcotest.bool "the far placement is left out" true (before = Route.snapshot r 0);
  ignore (Route.next_hop r ~sid:0 ~hops:0 point);
  check Alcotest.int "no longer trusted" 1 (Route.stats r).Route.rcs_misses

(* Shared churn harness: grow a cluster with bounded routing, then crash
   a snode, restart it, and land a vnode join — all inside the window the
   lookups are issued in, so they run against stale caches. *)
let churned_lookups ?(refresh = true) ~snodes ~vnodes ~max_hops ~lookups ~seed ()
    =
  let faults = Some (Fault.create ~drop:0. ~seed ()) in
  (* The smallest accepted [route_cap]: any positive value arms bounded
     routing. *)
  let rt =
    Runtime.create ~pmin:8
      ~approach:(Runtime.Local { vmin = 4 })
      ?faults ~route_cap:8 ~max_hops ~snodes ~seed ()
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
  let snodes = 12 and vnodes = 12 and lookups = 40 in
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
      churned_lookups ~snodes ~vnodes ~max_hops:64 ~lookups ~seed ()
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
    (* The audit checks coverage, and that no cache holds more entries
       outside its steward regions than the geometry allows. *)
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
   restart) and its lookups, every steward names the owner of every point
   of its regions. *)
let test_stewards_exact () =
  let snodes = 16 and vnodes = 48 in
  let rt, _, answered =
    churned_lookups ~refresh:false ~snodes ~vnodes ~max_hops:64
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
  let regions = Fingers.regions ~snodes ~level in
  check Alcotest.bool "the restarted snode stewards a region" true
    (regions.(1) <> []);
  List.iter
    (fun (sv : Runtime.View.snode_view) ->
      let sd = sv.sid in
      List.iter
        (fun r ->
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
        (List.map (fun index -> Span.make space ~level ~index) regions.(sd)))
    view.snodes

let test_legacy_unbounded_by_default () =
  (* route_cap = 0 keeps the legacy path: no probes counted, caches free
     to grow past any bound. *)
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
  check Alcotest.int "legacy default max_hops" 4 (Runtime.max_hops rt);
  check Alcotest.bool "bounded routing off" false (Runtime.route_bounded rt)

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
  check Alcotest.bool "messages per op finite and positive" true
    (r.rs_msgs_per_op > 0. && Float.is_finite r.rs_msgs_per_op);
  check (Alcotest.list Alcotest.string) "battery clean" [] r.rs_findings;
  check (Alcotest.list Alcotest.string) "durability clean" [] r.rs_linear

(* The n100 sweep point of BENCH_runtime.json, seed 2004, pinned. Before
   origins distrusted entries shallower than their deepest learned
   placement and stewards stayed exact, it had a walk of 31 hops against
   its 32-hop limit and paid 34.504 messages per op (6.6 at 1k snodes).
   While caches were LRU-bounded and learned reply hints, it paid 5.950
   messages per op (5.943 while origins learned every hint). Any routing
   change moves these numbers and must update them here. *)
let test_routing_cliff_pinned () =
  let r = Dht_experiments.Extensions.routing_scaling ~snodes:100 ~seed:2004 () in
  let open Dht_experiments.Extensions in
  check Alcotest.int "hops_max (max_hops 32)" 3 r.rs_hops_max;
  check Alcotest.string "msgs_per_op" "5.972"
    (Printf.sprintf "%.3f" r.rs_msgs_per_op)

(* [route_cap]'s value bounds nothing: the same sweep point at the
   smallest accepted value (Pmin = 8) routes exactly as at the default
   128, and its battery, which bounds each cache's entries outside its
   steward regions by the geometry, stays clean. *)
let test_smallest_cap () =
  let r =
    Dht_experiments.Extensions.routing_scaling ~snodes:100 ~route_cap:8 ~seed:2004 ()
  in
  let open Dht_experiments.Extensions in
  check Alcotest.string "msgs_per_op as at cap 128" "5.972"
    (Printf.sprintf "%.3f" r.rs_msgs_per_op);
  check Alcotest.int "cache_entries_max as at cap 128" 51 r.rs_cache_entries_max;
  check (Alcotest.list Alcotest.string) "battery clean" [] r.rs_findings;
  check (Alcotest.list Alcotest.string) "durability clean" [] r.rs_linear

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
    QCheck_alcotest.to_alcotest prop_steward_share_only;
    Alcotest.test_case "churn convergence over 100 seeds" `Slow
      test_churn_convergence_100_seeds;
    Alcotest.test_case "stewards exact after a join and a restart" `Quick
      test_stewards_exact;
    Alcotest.test_case "a left-out placement still raises trust" `Quick
      test_left_out_placement_raises_trust;
    Alcotest.test_case "route_cap=0 is the legacy path" `Quick
      test_legacy_unbounded_by_default;
    Alcotest.test_case "create validates routing params" `Quick
      test_create_validation;
    Alcotest.test_case "scaling sweep smoke" `Slow test_routing_scaling_smoke;
    Alcotest.test_case "routing cliff pinned (n100, seed 2004)" `Slow
      test_routing_cliff_pinned;
    Alcotest.test_case "no-churn walks take at most 3 hops (n100)" `Slow
      test_two_hop_walks;
    Alcotest.test_case "the smallest accepted cap passes the battery (n100)" `Slow
      test_smallest_cap;
  ]
