open Dht_core
open Dht_hashspace
module Registry = Dht_telemetry.Registry
module Fingers = Dht_cluster.Fingers

(* LRU stamps are keyed by a span's node number in the dyadic tree,
   [(1 lsl level) lor index]: one int per span, distinct for every span of
   a space of at most 62 bits. The table is only probed, never iterated,
   so its bucket order can steer no choice. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let code span = (1 lsl Span.level span) lor Span.index span

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
  (* Per-snode LRU stamps (span code -> last-touch tick), bounded caches
     only. Soft state, like route suspicions: reset on crash. *)
  rstamps : int Itbl.t array;
  (* Per-snode level of the deepest placement learned, bounded caches
     only: the trust threshold of {!next_hop}. Soft state, like the
     cache: a restart recomputes it from what the snode re-learns. *)
  deepest : int array;
  (* Per-snode regions stewarded, as region numbers; bounded caches only.
     Fixed by the geometry, so computed once. *)
  regions : int list array;
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
  let rlevel = Fingers.level ~bits:(Space.bits space) ~snodes in
  let regions =
    if route_cap = 0 then [||]
    else begin
      let a = Array.make snodes [] in
      for region = (1 lsl rlevel) - 1 downto 0 do
        let sd = Fingers.steward ~snodes ~region in
        a.(sd) <- region :: a.(sd)
      done;
      a
    end
  in
  {
    space;
    route_cap;
    rlevel;
    bootstrap;
    caches = Array.init snodes (fun _ -> bootstrap_cache space bootstrap);
    rstamps = Array.init snodes (fun _ -> Itbl.create 16);
    deepest = (if route_cap > 0 then Array.make snodes 0 else [||]);
    regions;
    rclock = 0; rc_hits = 0; rc_misses = 0; rc_evictions = 0; rc_peak = 0;
    route_refreshes = 0;
    hop_counts = Array.make (max_hops + 1) 0;
  }

(* ------------------------------------------------------------------ *)
(* Bounded routing cache                                                *)

(* LRU-stamp the cache span coded [code]. Stamps are soft state: a span [learn]
   decomposed away leaves its stamp orphaned (harmless — stamps are read
   through the live span set), and a missing stamp reads as 0, i.e.
   oldest. *)
let touch r sid code =
  r.rclock <- r.rclock + 1;
  Itbl.replace r.rstamps.(sid) code r.rclock

let stamp r sid span =
  match Itbl.find_opt r.rstamps.(sid) (code span) with Some s -> s | None -> 0

(* Whether the span [parent] intersects a region snode [sid] stewards. *)
let stewards r sid parent =
  let l = Span.level parent and i = Span.index parent in
  List.exists
    (fun region ->
      if l >= r.rlevel then i lsr (l - r.rlevel) = region
      else region lsr (r.rlevel - l) = i)
    r.regions.(sid)

(* Shrink the cache back under the cap without ever leaving a hole: fold
   the coldest sibling leaf-pair into one parent-level binding (keeping
   the fresher child's owner as the coarse guess — it is advice, not
   truth, so coarsening is always safe). A steward keeps its regions
   exact: it folds a pair inside them only when no other pair is left,
   which happens only when its regions alone hold more entries than the
   cap. Full coverage guarantees a foldable pair exists whenever the
   cardinality exceeds one, so the loop always terminates. *)
let cache_evict_to_cap r sid =
  let cache = r.caches.(sid) and stamps = r.rstamps.(sid) in
  while Point_map.cardinal cache > r.route_cap do
    let other = ref None and own = ref None in
    Point_map.iter_pairs cache (fun parent lo_v hi_v ->
        let lo_s, hi_s = Span.split r.space parent in
        let a = stamp r sid lo_s and b = stamp r sid hi_s in
        let stamp = if a >= b then a else b in
        let keep = if a >= b then lo_v else hi_v in
        let best = if stewards r sid parent then own else other in
        match !best with
        | Some (s, _, _, _, _) when s <= stamp -> ()
        | _ -> best := Some (stamp, parent, lo_s, hi_s, keep));
    match if Option.is_some !other then !other else !own with
    | None -> failwith "Route: routing cache lost coverage"
    | Some (stamp, parent, lo_s, hi_s, keep) ->
        Point_map.learn cache parent keep;
        Itbl.remove stamps (code lo_s);
        Itbl.remove stamps (code hi_s);
        Itbl.replace stamps (code parent) stamp;
        r.rc_evictions <- r.rc_evictions + 1
  done

let learn r sid span vid =
  Point_map.learn r.caches.(sid) span vid;
  if bounded r then begin
    if Span.level span > r.deepest.(sid) then r.deepest.(sid) <- Span.level span;
    touch r sid (code span);
    cache_evict_to_cap r sid;
    r.rc_peak <- Int.max r.rc_peak (Point_map.cardinal r.caches.(sid))
  end

(* A reply hint is learned only when [next_hop]'s trust rule would act on
   it: its span is at least [rlevel] deep and at least as deep as the
   deepest placement [sid] has learned. A shallower hint could never be
   followed at the first two hops, nor raise the trust threshold (the
   larger of the two levels); learning it would only press trusted
   entries out of a bounded cache. Unbounded caches learn every hint. *)
let learn_hint r sid span vid =
  let l = Span.level span in
  if (not (bounded r)) || (l >= r.rlevel && l >= r.deepest.(sid)) then
    learn r sid span vid

let next_hop r ~sid ~hops point =
  let cache = r.caches.(sid) in
  let advice = (Point_map.find_owner_exn cache point).Vnode_id.snode in
  if not (bounded r) then advice
  else
    (* Prefix routing: an entry is trusted only when it is at least
       [rlevel] deep (it names one snode's slice of one region) and at
       least as deep as the deepest placement this snode has learned. A
       shallower entry may name a span that later splits have moved, so
       it is a miss, and the walk diverts to the point's region steward.
       Stewards are exact — every commit files what it moved with them,
       the owners re-file a restarted steward, and a steward folds its
       regions' entries last — so the steward's advice is the owner:
       origin, steward, owner. Only the first two hops divert (a trusted
       entry at the origin may still be stale, and its target is the
       second hop); so a walk diverts at most once, later hops follow
       the advice they hold, and no steward/peer ping-pong can form: the
       bound on the walk rests on the steward being exact. *)
    let depth = Point_map.probe_depth cache point in
    if depth >= r.rlevel && depth >= r.deepest.(sid) then begin
      r.rc_hits <- r.rc_hits + 1;
      (* The code of the depth-[depth] span holding [point], built without
         the span itself. *)
      touch r sid ((1 lsl depth) lor (point lsr (Space.bits r.space - depth)));
      advice
    end
    else begin
      r.rc_misses <- r.rc_misses + 1;
      if hops > 1 then advice
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

(* File exact owned placements with the steward of every region they
   intersect: the spans a commit just gave this snode, or all it owns in
   a refresh round. A span coarser
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

(* Targeted filing for a restarted steward, whose cache restart wiped:
   [overlapping span] lists owner [sid]'s placements intersecting [span],
   and those in the steward's regions go to it in one report. The cost is
   the regions' spans, not a round. *)
let refile r ~steward ~sid overlapping report =
  if bounded r && sid <> steward then
    match
      List.concat_map
        (fun index -> overlapping (Span.make r.space ~level:r.rlevel ~index))
        r.regions.(steward)
    with
    | [] -> ()
    | owns ->
        r.route_refreshes <- r.route_refreshes + 1;
        report owns

(* LRU stamps die with the routing cache they describe. *)
let crash r sid = Itbl.reset r.rstamps.(sid)

(* The routing cache was volatile: restart from the bootstrap placement,
   then overlay what the snode durably owns (everything else converges
   through normal forwarding and commits). *)
let restart r sid owned =
  r.caches.(sid) <- bootstrap_cache r.space r.bootstrap;
  if bounded r then r.deepest.(sid) <- 0;
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
