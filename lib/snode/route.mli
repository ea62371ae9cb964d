(** Request routing between the snodes of one cluster: every snode's
    routing cache, the next-hop choice, hop accounting and steward
    refresh. The runtime above it schedules and sends; every routing
    decision and every piece of routing state lives here:

    - {b routing caches}: one per snode, global placement advice that may
      be stale, seeded with the bootstrap placement and corrected by
      commits, refresh reports ({!learn}) and the reply hints it would
      trust ({!learn_hint});
    - {b bounded caches}: with a positive [route_cap], an over-cap cache
      folds its coldest sibling leaf-pair (LRU by last probe or learn)
      into one coarser parent binding, so coverage is never broken; a
      pair inside the regions the snode stewards folds only when no
      other pair is left. A
      span's LRU stamp is keyed by its node number in the dyadic tree,
      [(1 lsl level) lor index], so re-stamping on a cache hit builds no
      {!Span.t};
    - {b prefix routing} over {!Dht_cluster.Fingers} geometry when
      bounded: a cache entry at least [ceil(log2 snodes)] levels deep,
      and at least as deep as the deepest placement the snode has
      learned, is trusted as advice; any other diverts the walk to the
      point's region steward ({!next_hop}). Stewards stay exact without
      rounds: commits file what they moved with them ({!refresh} over
      the moved spans) and a restarted steward is re-filed by the owners
      ({!refile}); full {!refresh} rounds remain available;
    - {b hop accounting}: executed routed operations per hop count.

    Caches, LRU stamps and the deepest learned level are volatile:
    {!crash} drops the stamps and {!restart} rebuilds the cache from the
    bootstrap placement. *)

open Dht_core
open Dht_hashspace

type t

val default_max_hops : int
(** The forwarding limit when none is given: 4. *)

val max_hops_ceiling : int
(** The largest accepted forwarding limit: 1,024, far above any
    O(log N) walk in a 52-bit space. *)

val create :
  space:Space.t ->
  pmin:int ->
  snodes:int ->
  route_cap:int ->
  max_hops:int ->
  bootstrap:Span.t list * Vnode_id.t ->
  t
(** One routing cache per snode, each holding the [bootstrap] placement
    (its spans, all owned by one vnode). [route_cap] bounds every cache
    (0: unbounded, the legacy path, which counts no probes); [max_hops]
    is the forwarding limit.
    @raise Invalid_argument (worded for {!Runtime.create}, the caller)
    unless [1 <= max_hops <= max_hops_ceiling] and [route_cap] is 0 or
    at least [pmin]. *)

val bounded : t -> bool
(** Whether the caches are bounded ([route_cap > 0]). *)

val learn : t -> int -> Span.t -> Vnode_id.t -> unit
(** [learn r sid span vid] records in snode [sid]'s cache that [vid] owns
    [span]. When bounded, the span is stamped most recent, raises the
    snode's deepest learned level, and the cache folds back under its
    cap. *)

val learn_hint : t -> int -> Span.t -> Vnode_id.t -> unit
(** [learn_hint r sid span vid] is {!learn} for a reply hint that a routed
    operation's owner sent back to its origin [sid]: when bounded, the
    hint is learned only if {!next_hop} would trust it, i.e. its span is
    at least [level r] deep and at least as deep as the deepest placement
    [sid] has learned; any other leaves the cache, its stamps and the
    deepest level unchanged. Unbounded caches learn every hint. *)

val next_hop : t -> sid:int -> hops:int -> int -> int
(** [next_hop r ~sid ~hops point] is the snode that snode [sid], which
    does not own [point], forwards a routed operation to after [hops]
    hops: the cache's advice, or on a bounded miss within the first two
    hops ([hops <= 1]) the point's region steward. A bounded probe hits
    when its entry is at least [level r] deep and at least as deep as
    the deepest placement [sid] has learned. Counts the probe as a hit
    or a miss when bounded. *)

val executed : t -> hops:int -> bool
(** Count one routed operation executed at its owner after [hops]
    forwarding hops ([hops <= max_hops]). [true] when the reply should
    carry the owner's exact placement back to the origin as a repair
    hint: the operation was forwarded and the caches are bounded. *)

val refresh :
  t ->
  sid:int ->
  ((Span.t -> Vnode_id.t -> unit) -> unit) ->
  (int -> (Span.t * Vnode_id.t) list -> unit) ->
  unit
(** [refresh r ~sid owned report] files every placement [owned]
    enumerates (snode [sid]'s exact owned spans: all of them in a
    refresh round, the ones a commit just gave it otherwise) with the
    steward of every region it intersects, then calls
    [report steward placements] once per distinct steward other than
    [sid]. A no-op unless bounded. *)

val refile :
  t ->
  steward:int ->
  sid:int ->
  (Span.t -> (Span.t * Vnode_id.t) list) ->
  ((Span.t * Vnode_id.t) list -> unit) ->
  unit
(** [refile r ~steward ~sid overlapping report] files snode [sid]'s
    placements in the regions [steward] stewards with it, for a steward
    whose cache a restart wiped: [overlapping span] lists [sid]'s owned
    placements intersecting [span], and [report] gets them all in one
    call, unless there are none. A no-op unless bounded, and when [sid]
    is the steward. *)

val crash : t -> int -> unit
(** Drop a crashed snode's LRU stamps. *)

val restart : t -> int -> ((Span.t -> Vnode_id.t -> unit) -> unit) -> unit
(** [restart r sid owned] rebuilds snode [sid]'s cache from the bootstrap
    placement, then learns every placement [owned] enumerates; the
    deepest learned level is recomputed from those. *)

(** {2 Inspection} *)

val level : t -> int
(** The finger level routed at: ceil(log2 snodes), clamped to the space
    ({!Dht_cluster.Fingers}). *)

val route_cap : t -> int
val max_hops : t -> int

val entries : t -> int -> int
(** One snode's current cache entry count. *)

val snapshot : t -> int -> (Span.t * Vnode_id.t) list
(** One snode's cache entries, in span order. *)

val stamp : t -> int -> Span.t -> int
(** A cache span's LRU stamp on one snode: the LRU clock at its last
    probe or learn, or at the fold that made it; 0 (oldest) when
    unstamped. *)

val hops : t -> int array
(** Executed routed operations per hop count (length [max_hops + 1]); a
    fresh copy. *)

type stats = {
  rcs_hits : int;  (** cache probes answered by a region-fine entry *)
  rcs_misses : int;  (** probes that fell back to steward or chain *)
  rcs_evictions : int;  (** LRU pair-folds forced by the cap *)
  rcs_refreshes : int;  (** steward refresh reports sent *)
  rcs_entries : int;  (** current total entries across all caches *)
  rcs_peak : int;  (** highest post-learn occupancy of any one cache *)
}

val stats : t -> stats
(** Bounded-cache counters (all zero when unbounded). *)

val record_metrics : t -> Dht_telemetry.Registry.t -> unit
(** Add the routing counters ([runtime.route.cache.hits], [.misses],
    [.evictions], [runtime.route.refreshes]) and gauges
    ([runtime.route.cache.entries], [.peak], and [runtime.route.hops.peak],
    the highest hop count any executed operation took). *)
