open Dht_core
open Dht_hashspace
module Registry = Dht_telemetry.Registry
module Fingers = Dht_cluster.Fingers

(* Forwarding limit: a routed operation bounces through at most [max_hops]
   stale caches, then backs off and retries from scratch; convergence is
   guaranteed once the in-flight balancing event commits. [max_hops] is a
   [create] parameter with this default — scaling sweeps raise it so the
   hop distribution is measurable instead of retry-truncated. The ceiling
   bounds the per-hop-count table; an O(log N) walk in a 52-bit space
   never comes near it. *)
let default_max_hops = 4
let max_hops_ceiling = 1024

type stats = {
  rcs_hits : int; rcs_misses : int; rcs_evictions : int;
  rcs_refreshes : int; rcs_entries : int; rcs_peak : int;
}

type t = {
  space : Space.t;
  route_cap : int;  (* routing-cache entry bound; 0 = unbounded (legacy) *)
  rlevel : int;  (* finger level: ceil(log2 snodes), clamped to the space *)
  bootstrap : Span.t list * Vnode_id.t;  (* for rebuilding crashed caches *)
  caches : Vnode_id.t Point_map.t array;  (* global placement; may be stale *)
  (* Per-snode LRU stamps (span -> last-touch tick), bounded caches only.
     Soft state, like route suspicions: reset on crash. *)
  rstamps : (Span.t, int) Hashtbl.t array;
  (* Bounded-routing-cache accounting (all zero when unbounded). *)
  mutable rclock : int;  (* LRU clock: bumped on every touch *)
  mutable rc_hits : int;  (* cache probes answered by a fine entry *)
  mutable rc_misses : int;  (* probes that fell back to steward/chain *)
  mutable rc_evictions : int;  (* LRU pair-folds forced by the cap *)
  mutable rc_peak : int;  (* highest post-learn occupancy of any cache *)
  mutable route_refreshes : int;  (* steward refresh reports sent *)
  hop_counts : int array;  (* executed routed ops per hop count, 0..max_hops *)
}

let bounded r = r.route_cap > 0

(* A cache holding only the bootstrap placement: every cache's start, and
   a restarted snode's too. *)
let bootstrap_cache space (spans0, first) =
  let cache = Point_map.create space in
  List.iter (fun s -> Point_map.add cache s first) spans0;
  cache

let create ~space ~pmin ~snodes ~route_cap ~max_hops ~bootstrap =
  if max_hops < 1 then invalid_arg "Runtime.create: max_hops < 1";
  if max_hops > max_hops_ceiling then
    invalid_arg (Printf.sprintf "Runtime.create: max_hops > %d" max_hops_ceiling);
  if route_cap < 0 then invalid_arg "Runtime.create: route_cap < 0";
  (* A restarting snode rebuilds its cache from the [pmin]-span bootstrap
     placement; a cap below that could not even hold the rebuild. *)
  if route_cap > 0 && route_cap < pmin then
    invalid_arg "Runtime.create: route_cap must be 0 or >= pmin";
  {
    space;
    route_cap;
    rlevel = Fingers.level ~bits:(Space.bits space) ~snodes;
    bootstrap;
    caches = Array.init snodes (fun _ -> bootstrap_cache space bootstrap);
    rstamps = Array.init snodes (fun _ -> Hashtbl.create 16);
    rclock = 0; rc_hits = 0; rc_misses = 0; rc_evictions = 0; rc_peak = 0;
    route_refreshes = 0;
    hop_counts = Array.make (max_hops + 1) 0;
  }

(* ------------------------------------------------------------------ *)
(* Bounded routing cache                                                *)

(* LRU-stamp a cache span. Stamps are soft state: a span [learn]
   decomposed away leaves its stamp orphaned (harmless — stamps are read
   through the live span set), and a missing stamp reads as 0, i.e.
   oldest. *)
let cache_touch r sid span =
  r.rclock <- r.rclock + 1;
  Hashtbl.replace r.rstamps.(sid) span r.rclock

let stamp r sid span =
  match Hashtbl.find_opt r.rstamps.(sid) span with Some s -> s | None -> 0

(* Shrink the cache back under the cap without ever leaving a hole: fold
   the coldest sibling leaf-pair into one parent-level binding (keeping
   the fresher child's owner as the coarse guess — it is advice, not
   truth, so coarsening is always safe). Full coverage guarantees a
   foldable pair exists whenever the cardinality exceeds one, so the loop
   always terminates. *)
let cache_evict_to_cap r sid =
  let cache = r.caches.(sid) and stamps = r.rstamps.(sid) in
  while Point_map.cardinal cache > r.route_cap do
    let best = ref None in
    Point_map.iter_pairs cache (fun parent lo_v hi_v ->
        let lo_s, hi_s = Span.split r.space parent in
        let a = stamp r sid lo_s and b = stamp r sid hi_s in
        let stamp = if a >= b then a else b in
        let keep = if a >= b then lo_v else hi_v in
        match !best with
        | Some (s, _, _, _, _) when s <= stamp -> ()
        | _ -> best := Some (stamp, parent, lo_s, hi_s, keep));
    match !best with
    | None -> failwith "Route: routing cache lost coverage"
    | Some (stamp, parent, lo_s, hi_s, keep) ->
        Point_map.learn cache parent keep;
        Hashtbl.remove stamps lo_s;
        Hashtbl.remove stamps hi_s;
        Hashtbl.replace stamps parent stamp;
        r.rc_evictions <- r.rc_evictions + 1
  done

let learn r sid span vid =
  Point_map.learn r.caches.(sid) span vid;
  if bounded r then begin
    cache_touch r sid span;
    cache_evict_to_cap r sid;
    r.rc_peak <- Int.max r.rc_peak (Point_map.cardinal r.caches.(sid))
  end

let next_hop r ~sid ~hops point =
  let cache = r.caches.(sid) in
  let advice = (Point_map.find_owner_exn cache point).Vnode_id.snode in
  if not (bounded r) then advice
  else
    (* Prefix routing: an entry at least [rlevel] deep is {e fine} — it
       names one snode's slice of one region, so we trust it like a legacy
       advice hop. A coarser entry is a miss; the origin hop diverts it to
       the region's steward (which accumulates fine placements for the
       region via refresh rounds), while intermediate hops keep walking
       the coarse advice chain — the chain converges by the
       commit-learning induction, and never diverting mid-chain rules out
       a deterministic steward/peer ping-pong. *)
    let depth = Point_map.probe_depth cache point in
    if depth >= r.rlevel then begin
      r.rc_hits <- r.rc_hits + 1;
      cache_touch r sid (Span.of_point r.space ~level:depth point);
      advice
    end
    else begin
      r.rc_misses <- r.rc_misses + 1;
      if hops > 0 then advice
      else
        let region = Fingers.region ~bits:(Space.bits r.space) ~level:r.rlevel point in
        let steward = Fingers.steward ~snodes:(Array.length r.caches) ~region in
        if steward = sid then advice else steward
    end

(* Executed hops never exceed [max_hops]: a walk is forwarded only below
   the limit. Reply hints ride only bounded routing's replies. *)
let executed r ~hops =
  r.hop_counts.(hops) <- r.hop_counts.(hops) + 1;
  hops > 0 && bounded r

(* One snode's share of a refresh round: its exact owned placements,
   filed with the steward of every region they intersect. A span coarser
   than a region is filed with each covered region's steward — filing by
   start-region only leaves every steward blind to points that fall
   mid-span, and those walks degrade to stale advice chains. The total
   filing volume per round stays O(regions + spans): a level-[l] span
   covers [2^(rlevel-l)] regions, and those counts sum to at most the
   region count across a partition of the space. *)
let refresh r ~sid owned report =
  if bounded r then begin
    let n = Array.length r.caches in
    let bits = Space.bits r.space in
    let by_steward = Hashtbl.create 8 in
    owned (fun span vid ->
        let region0 =
          Fingers.region ~bits ~level:r.rlevel (Span.start r.space span)
        in
        let covered =
          let l = Span.level span in
          if l >= r.rlevel then 1 else 1 lsl (r.rlevel - l)
        in
        (* Distinct stewards only: consecutive regions can hash to the
           same steward, and the steward's own [owned] map already
           resolves its local placements. *)
        let seen = Hashtbl.create 4 in
        for region = region0 to region0 + covered - 1 do
          let sd = Fingers.steward ~snodes:n ~region in
          if sd <> sid && not (Hashtbl.mem seen sd) then begin
            Hashtbl.add seen sd ();
            let prev = Option.value ~default:[] (Hashtbl.find_opt by_steward sd) in
            Hashtbl.replace by_steward sd ((span, vid) :: prev)
          end
        done);
    Hashtbl.iter
      (fun sd owns ->
        r.route_refreshes <- r.route_refreshes + 1;
        report sd owns)
      by_steward
  end

(* LRU stamps die with the routing cache they describe. *)
let crash r sid = Hashtbl.reset r.rstamps.(sid)

(* The routing cache was volatile: restart from the bootstrap placement,
   then overlay what the snode durably owns (everything else converges
   through normal forwarding and commits). *)
let restart r sid owned =
  r.caches.(sid) <- bootstrap_cache r.space r.bootstrap;
  owned (fun s vid -> learn r sid s vid)

let level r = r.rlevel
let route_cap r = r.route_cap
let max_hops r = Array.length r.hop_counts - 1
let entries r sid = Point_map.cardinal r.caches.(sid)
let snapshot r sid = Point_map.to_list r.caches.(sid)
let hops r = Array.copy r.hop_counts

let stats r =
  { rcs_hits = r.rc_hits; rcs_misses = r.rc_misses;
    rcs_evictions = r.rc_evictions; rcs_refreshes = r.route_refreshes;
    rcs_entries = Array.fold_left (fun n c -> n + Point_map.cardinal c) 0 r.caches;
    rcs_peak = r.rc_peak }

(* The most hops any executed routed op took: the highest hop count with
   an op behind it. *)
let hops_peak r =
  let h = ref (max_hops r) in
  while !h > 0 && r.hop_counts.(!h) = 0 do decr h done;
  !h

let record_metrics r reg =
  let c name v = Registry.inc (Registry.counter reg name) v in
  let g name v = Registry.set (Registry.gauge reg name) v in
  c "runtime.route.cache.hits" r.rc_hits;
  c "runtime.route.cache.misses" r.rc_misses;
  c "runtime.route.cache.evictions" r.rc_evictions;
  c "runtime.route.refreshes" r.route_refreshes;
  g "runtime.route.cache.entries" (float_of_int (stats r).rcs_entries);
  g "runtime.route.cache.peak" (float_of_int r.rc_peak);
  g "runtime.route.hops.peak" (float_of_int (hops_peak r))
