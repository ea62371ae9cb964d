(** Dyadic hash trees over contiguous hash ranges.

    A tree summarizes the cells whose hash points fall inside one dyadic
    {!Dht_hashspace.Span.t}: interior nodes are the binary split of their
    span (the same split rule partitions follow, §3.4), leaves are buckets
    of at most [leaf_cap] keys, and every node carries an
    order-insensitive digest — the [lxor] of its members' per-cell
    digests — plus an exact key count. Because the digest is an XOR fold,
    an interior hash is always [left lxor right] and the root digest of a
    tree equals the flat fold a full scan would produce, so a root frame
    is the span's digest.

    The payload type ['a] is opaque to the tree (the runtime stores
    whole versioned cells so divergent leaves can be shipped without
    re-scanning the store; the property tests store [unit]). Identity is
    the caller-supplied per-cell [digest]; payloads never participate in
    hashing.

    Shape is {e canonical}: a node is interior iff its subtree holds more
    than [leaf_cap] keys (or sits at the space's maximum level, where
    splitting is impossible). {!insert} and {!remove} preserve this by
    splitting overfull leaves and collapsing underfull interior nodes, so
    a tree maintained incrementally is structurally equal to one rebuilt
    from scratch over the same cells — the invariant the incremental-
    rehash property test pins down.

    Handles share nodes. Each node is stamped with the handle that
    created it; an update mutates in place the nodes on its root path
    that its handle owns and path-copies the rest (O(depth) fresh nodes
    plus one bucket of at most [leaf_cap] members), so between snapshots
    an overwrite allocates only its new entry. {!snapshot} is O(1): it
    re-stamps both handles, so every node that existed at that moment is
    shared and frozen, and neither handle ever observes the other's later
    {!insert}s or {!remove}s. *)

open Dht_hashspace

type 'a t

type frame = {
  f_span : Span.t;
  f_count : int;  (** keys under [f_span] *)
  f_hash : int;  (** XOR fold of their per-cell digests *)
  f_leaf : bool;  (** no finer frames exist: resolution ended in a bucket *)
}
(** One (range, hash) summary as it rides a [Wire.Mt_*] message. *)

val create : ?leaf_cap:int -> space:Space.t -> span:Span.t -> unit -> 'a t
(** An empty tree over [span]. [leaf_cap] (default [16]) bounds bucket
    size wherever the span can still split.
    @raise Invalid_argument if [leaf_cap < 1].
    Needed by test_merkle and test_alloc, which build trees with no
    store around them. *)

val build :
  ?leaf_cap:int ->
  space:Space.t ->
  span:Span.t ->
  (string * int * int * 'a) list ->
  'a t
(** [build cells] over [(key, point, digest, payload)] tuples; keys
    outside [span] are ignored, and a key listed more than once keeps its
    last occurrence (a key must always come with the same point).
    Canonical shape by construction. *)

val snapshot : 'a t -> 'a t
(** An independent handle on the tree's current contents, in O(1): later
    updates through either handle are invisible to the other. *)

val space : 'a t -> Space.t
val span : 'a t -> Span.t
val leaf_cap : 'a t -> int

val count : 'a t -> int
(** Total keys held. *)

val digest : 'a t -> int
(** Root hash: XOR fold of every member's per-cell digest. *)

val insert : 'a t -> key:string -> point:int -> digest:int -> 'a -> unit
(** Add or overwrite one cell, rehashing only the leaf's root path
    (O(depth)); an overfull leaf splits in place.
    @raise Invalid_argument if [point] is outside the tree's span. *)

val remove : 'a t -> key:string -> point:int -> bool
(** Drop one cell ([false] if absent); an underfull interior node
    collapses back into a bucket so the shape stays canonical. *)

val frame_at : 'a t -> Span.t -> frame
(** The frame of any dyadic subrange: exact count and hash of the held
    cells inside it (zero frame when disjoint from the tree's span).
    [f_leaf] is set when the tree has nothing finer to offer — descent
    below such a frame must switch to key transfer. *)

val children : 'a t -> Span.t -> frame * frame
(** Frames of the two halves of [span] — one descent step.
    @raise Invalid_argument if [span] is at the space's max level. *)

val entries_at : 'a t -> Span.t -> (string * int * 'a) list
(** [(key, digest, payload)] of every held cell inside the subrange,
    sorted by key: the transfer set for a divergent leaf. *)

val range : 'a t -> lo:int -> hi:int -> (string * 'a) list
(** [(key, payload)] of every held cell whose point lies in the half-open
    interval [\[lo, hi)], sorted by key. Subtrees disjoint from the
    interval are pruned and subtrees inside it are taken whole, so only
    the buckets straddling [lo] or [hi] are filtered member by member.
    Empty when [hi <= lo]. *)

val check : 'a t -> string list
(** Structural audit, one finding per line: every interior hash must be
    recomputable as [left lxor right] (counts likewise additive), every
    bucket hash must equal the XOR of its members, every member must lie
    inside its bucket's span, buckets must be sorted by key without
    duplicates, and the shape must be canonical. Empty
    means consistent. *)

val equal : 'a t -> 'a t -> bool
(** Structural equality over spans, counts, hashes and bucket contents
    (keys and digests; payloads are not compared). *)
