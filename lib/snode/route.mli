(** Request routing between the snodes of one cluster: every snode's
    routing cache, the next-hop choice, hop accounting and steward
    refresh. The runtime above it schedules and sends; every routing
    decision and every piece of routing state lives here:

    - {b routing caches}: one per snode, global placement advice that may
      be stale, seeded with the bootstrap placement and corrected by
      commits and refresh reports ({!learn});
    - {b bounded caches}: with a positive [route_cap], a cache keeps the
      bootstrap placement and the placements inside the regions its
      snode stewards, and nothing else. The steward share is exact. The
      rest, the entries outside those regions, are bootstrap spans and
      the fragments that learning inside a region splits off: the
      geometry bounds them by [pmin] plus one per level between the
      bootstrap's and the finger level per stewarded region, and the
      invariant battery checks that bound. [route_cap]'s value bounds
      nothing. Replies carry no repair hint;
    - {b prefix routing} over {!Dht_cluster.Fingers} geometry when
      bounded: a cache entry at least [ceil(log2 snodes)] levels deep,
      and at least as deep as the deepest placement the snode has
      learned, is trusted as advice; any other diverts the walk to the
      point's region steward ({!next_hop}). Stewards stay exact without
      rounds: commits file what they moved with them ({!refresh} over
      the moved spans) and a restarted steward is re-filed by the owners
      ({!refile}); full {!refresh} rounds remain available;
    - {b hop accounting}: executed routed operations per hop count.

    Caches and the deepest learned level are volatile: {!restart}
    rebuilds the cache from the bootstrap placement. *)

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
    (its spans, all owned by one vnode). A positive [route_cap] arms
    bounded caches; only its sign matters (0: unbounded, the legacy
    path, which counts no probes). [max_hops] is the forwarding limit.
    @raise Invalid_argument (worded for {!Runtime.create}, the caller)
    unless [1 <= max_hops <= max_hops_ceiling] and [route_cap] is 0 or
    at least [pmin]. *)

val bounded : t -> bool
(** Whether the caches are bounded ([route_cap > 0]). *)

val learn : t -> int -> Span.t -> Vnode_id.t -> unit
(** [learn r sid span vid] records in snode [sid]'s cache that [vid] owns
    [span]. When bounded, the span raises the snode's deepest learned
    level, and the cache keeps it only when it intersects a region [sid]
    stewards. *)

val next_hop : t -> sid:int -> hops:int -> int -> int
(** [next_hop r ~sid ~hops point] is the snode that snode [sid], which
    does not own [point], forwards a routed operation to after [hops]
    hops: the cache's advice, or on a bounded miss within the first two
    hops ([hops <= 1]) the point's region steward. A bounded probe hits
    when its entry is at least [level r] deep and at least as deep as
    the deepest placement [sid] has learned. Counts the probe as a hit
    or a miss when bounded. *)

val executed : t -> hops:int -> unit
(** Count one routed operation executed at its owner after [hops]
    forwarding hops ([hops <= max_hops]). *)

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

val restart : t -> int -> ((Span.t -> Vnode_id.t -> unit) -> unit) -> unit
(** [restart r sid owned] rebuilds snode [sid]'s cache from the bootstrap
    placement, then learns every placement [owned] enumerates; the
    deepest learned level is recomputed from those. *)

(** {2 Inspection} *)

val level : t -> int
(** The finger level routed at: ceil(log2 snodes), clamped to the space
    ({!Dht_cluster.Fingers}). *)

val max_hops : t -> int

val entries : t -> int -> int
(** One snode's current cache entry count. *)

val snapshot : t -> int -> (Span.t * Vnode_id.t) list
(** One snode's cache entries, in span order. *)

val hops : t -> int array
(** Executed routed operations per hop count (length [max_hops + 1]); a
    fresh copy. *)

type stats = {
  rcs_hits : int;  (** cache probes answered by a region-fine entry *)
  rcs_misses : int;  (** probes that fell back to steward or chain *)
  rcs_evictions : int;  (** always 0: no cache evicts *)
  rcs_refreshes : int;  (** steward refresh reports sent *)
  rcs_entries : int;  (** current total entries across all caches *)
  rcs_peak : int;  (** highest post-learn occupancy of any one cache *)
}

val stats : t -> stats
(** Bounded-cache counters (all zero when unbounded). *)

val record_metrics : t -> Dht_telemetry.Registry.t -> unit
(** Add the routing counters ([runtime.route.cache.hits], [.misses],
    [.evictions] (always 0), [runtime.route.refreshes]) and gauges
    ([runtime.route.cache.entries], [.peak], and [runtime.route.hops.peak],
    the highest hop count any executed operation took). *)
