(** Mutable map from disjoint spans to owners, with point lookup.

    This is the routing structure of the DHT: given a hash index, find the
    partition (and its owner) responsible for it in O(log n). Spans stored in
    one map must be pairwise disjoint; this is checked on insertion against
    the immediate neighbours.

    The map is a binary trie over the dyadic cells of the space. Its leaves
    are immutable and shared: the fragments {!learn} leaves behind and the
    halves {!split} makes all point at the coarser span's leaf, so a
    decomposition allocates its interior nodes and nothing per fragment,
    and a {!learn} that keeps a span's owner (physical equality) allocates
    nothing. Rebinding a span ({!learn}, {!replace_owner}) swaps its leaf
    and leaves every other span sharing the old one as it was. Bindings,
    {!cardinal} and traversal orders do not depend on the sharing. *)

type 'a t

val create : Space.t -> 'a t
(** An empty map over the given space. *)

val space : 'a t -> Space.t

val cardinal : 'a t -> int

val add : 'a t -> Span.t -> 'a -> unit
(** [add t span v] registers [span] with owner [v].
    @raise Invalid_argument if [span] overlaps a span already present. *)

val remove : 'a t -> Span.t -> unit
(** [remove t span] removes exactly [span].
    @raise Not_found if [span] is not present (same level and index). *)

val find_point : 'a t -> int -> Span.t * 'a
(** [find_point t p] is the registered span containing index [p] and its
    owner.
    @raise Invalid_argument if [p] lies outside the space.
    @raise Not_found if no registered span contains [p]. *)

val find_owner_exn : 'a t -> int -> 'a
(** [find_owner_exn t p] is the owner of the registered span containing
    index [p] — {!find_point} without the span: the probe walks the trie
    and returns the leaf's value directly, allocating nothing. This is the
    per-hop routing probe; at cluster scale the two allocations
    {!find_point} pays (the span record and the result tuple) dominate the
    lookup cost.
    @raise Invalid_argument if [p] lies outside the space.
    @raise Not_found if no registered span contains [p]. *)

val probe_depth : 'a t -> int -> int
(** [probe_depth t p] is the level of the registered span containing [p],
    as a bare int (allocation-free). Routing layers use it to judge
    whether a cached entry is fine enough to act on.
    @raise Invalid_argument if [p] lies outside the space.
    @raise Not_found if no registered span contains [p]. *)

val replace_owner : 'a t -> Span.t -> 'a -> unit
(** [replace_owner t span v] updates the owner of an exact registered span.
    @raise Not_found if [span] is not present. *)

val split : 'a t -> Span.t -> unit
(** [split t span] replaces the registered [span] by its two halves, both
    keeping the same owner.
    @raise Not_found if [span] is not present.
    @raise Invalid_argument if [span] is at maximum level. *)

val learn : 'a t -> Span.t -> 'a -> unit
(** [learn t span v] registers [span -> v], evicting whatever overlapped it,
    in one pass. Registered spans inside [span] are dropped; a registered
    span {e containing} [span] is decomposed along the dyadic path: each
    sibling fragment on the way down keeps the old owner, so no hole is ever
    left. This is the learn-without-holes operation routing caches and
    replica maps perform on every placement commit, done in O(level) trie
    surgery instead of an evict/re-insert churn. The fragments share the
    containing span's leaf; [span] gets a new leaf unless it was already
    registered with [v] itself. *)

val overlapping : 'a t -> Span.t -> (Span.t * 'a) list
(** [overlapping t span] is every registered binding whose span intersects
    [span], in increasing start order. Used to re-file a restarted
    steward's regions with it. *)

val iter : 'a t -> (Span.t -> 'a -> unit) -> unit
(** Iterates in increasing start order. *)

val to_list : 'a t -> (Span.t * 'a) list
(** Bindings in increasing start order. *)

val spans : 'a t -> Span.t list
(** All registered spans, in increasing start order. *)
