(** Prefix/finger geometry for routing at cluster scale.

    The hash space is cut into [2{^level}] equal prefix regions (the top
    [level] bits of a point — a dyadic cell, so regions align with the
    trie the routing caches are built on). Every region has a
    deterministic {e steward} snode, computable locally by every member
    from the cluster size alone: stewards accumulate fine placement
    entries for their regions, giving lookups that miss in the local
    cache a one-hop shortcut instead of a walk along the stale-advice
    chain. *)

val level : bits:int -> snodes:int -> int
(** Finger level for a cluster of [snodes] over a [bits]-bit space:
    [ceil(log2 snodes)] clamped to [\[1, bits\]] — at least one region
    per snode.
    @raise Invalid_argument if [bits < 1] or [snodes < 1]. *)

val region : bits:int -> level:int -> int -> int
(** [region ~bits ~level p] is the prefix region of point [p]: its top
    [level] bits.
    @raise Invalid_argument if [level] lies outside [\[1, bits\]]. *)

val steward : snodes:int -> region:int -> int
(** The snode stewarding [region] — a deterministic integer-mix hash of
    the region index, spread so adjacent regions land on unrelated
    snodes.
    @raise Invalid_argument if [snodes < 1]. *)
