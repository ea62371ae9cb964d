(* Prefix/finger geometry for routing at cluster scale.

   The hash space is cut into [2^level] equal prefix regions — a region is
   the top-[level] bits of a point, i.e. a dyadic cell, so regions embed
   in the same trie the routing caches use. [level] tracks the cluster
   size (one region per snode, rounded up to a power of two), and every
   region is assigned a deterministic steward snode that everyone can
   compute locally: the steward accumulates fine placement entries for
   its regions, so a lookup that misses in the local cache pays one hop
   to the steward instead of walking the whole stale-advice chain.

   Stewardship is spread by an integer mix rather than [region mod
   snodes]: adjacent regions land on unrelated snodes, so a hot prefix
   does not concentrate its routing load on neighbouring stewards. *)

(* 63-bit xor-shift/multiply mix (SplitMix-style finalizer with constants
   that fit OCaml's native int). Deterministic across runs and platforms
   with 64-bit ints. *)
let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x27D4EB2F165667C5 in
  (x lxor (x lsr 32)) land max_int

let level ~bits ~snodes =
  if bits < 1 then invalid_arg "Fingers.level: bits < 1";
  if snodes < 1 then invalid_arg "Fingers.level: snodes < 1";
  (* Stop at [bits]: the result clamps there anyway, and [1 lsl acc]
     would overflow long before a [max_int]-sized cluster is reached. *)
  let rec ceil_log2 acc n =
    if acc >= bits || 1 lsl acc >= n then acc else ceil_log2 (acc + 1) n
  in
  min bits (max 1 (ceil_log2 0 snodes))

let region ~bits ~level point =
  if level < 1 || level > bits then invalid_arg "Fingers.region: bad level";
  point lsr (bits - level)

let steward ~snodes ~region =
  if snodes < 1 then invalid_arg "Fingers.steward: snodes < 1";
  mix region mod snodes
