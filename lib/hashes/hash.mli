(** Key hashing for the DHT data plane.

    The model only assumes "a hash function h of range R_h" (§2.2); the data
    plane needs a concrete one to map application keys to hash indices. We
    provide FNV-1a (64-bit) for strings/bytes and a Murmur3-style finalizer
    for integers, both folded down to a given {!Space.t}. *)

val fnv1a64 : string -> int64
(** FNV-1a over the bytes of the string, full 64-bit result.
    Needed by test_alloc (golden values) and test_hashes. *)

val mix64 : int64 -> int64
(** Murmur3/SplitMix finalizer: a bijective avalanche mix of a 64-bit word.
    Good for hashing integer keys that may be sequential.
    Needed by test_hashes (avalanche and determinism). *)

val to_space : Dht_hashspace.Space.t -> int64 -> int
(** Folds a 64-bit hash into a hash index of the space (top bits, which are
    the best-mixed bits of both hash functions above).
    Needed by test_hashes (bounds of the fold). *)

val string : Dht_hashspace.Space.t -> string -> int
(** [string sp k] hashes a string key into the space. *)
