(** The replica store of one cluster: every snode's held cells and
    everything derived from them. The runtime above it routes, sends and
    schedules; every write to a held cell happens here:

    - {b held cells}: each vnode's partition table ({!table}) and each
      snode's replica table, which holds the copies of partitions the
      snode replicates but does not own (including hinted parking). Both
      merge by last-writer-wins;
    - {b the live hash tree}: one {!Dht_merkle.Merkle} tree per snode
      over every cell it holds, kept in step with the tables by the only
      functions that can change them, so it always equals a rebuild over
      the tables ({!audit}). It answers span digests and range legs;
    - {b anti-entropy}: per-snode push rounds, each cutting its probes
      from a fresh snapshot of the live tree ({!push}), and the frame
      protocol that answers them ({!answer}): a hash-tree descent to the
      divergent leaves, skipped for a span of at most [mt_threshold]
      cells, whose root frame is answered as a leaf.

    The live tree, the snapshot and the per-peer round markers are soft
    state ({!crash}); the tables and the push-round counter are durable.
    The store draws no random numbers. *)

open Dht_core
open Dht_hashspace

type t

type table
(** One vnode's partition table: the authoritative copies of the cells
    its partitions hold, on one snode. *)

val create :
  space:Space.t ->
  mt_threshold:int ->
  mt_leaf:int ->
  snodes:int ->
  owner:(int -> int -> table) ->
  tables:(int -> (Vnode_id.t -> table -> unit) -> unit) ->
  t
(** An empty store for [snodes] snodes. [owner sid point] is the table of
    the vnode on snode [sid] that owns [point] ([Not_found] when [sid]
    owns no partition covering it); [tables sid f] calls [f] on every
    vnode table of snode [sid], always in the same order. [mt_leaf]
    bounds hash-tree buckets.
    @raise Invalid_argument (worded for {!Runtime.create}, the caller)
    if [mt_threshold < 0] or [mt_leaf < 1]. *)

val table : int -> table
(** A fresh, empty partition table on snode [sid]. *)

(** {2 Writes} *)

val hold :
  ?lww:bool -> t -> table -> point:int -> key:string -> Dht_kv.Versioned.cell ->
  bool
(** Store a cell under [key] (hashing to [point]) in a partition table:
    unconditionally with [~lww:false], otherwise only when strictly
    fresher than the held copy. [true] when the held cell changed. *)

val store : t -> int -> point:int -> key:string -> Dht_kv.Versioned.cell -> bool
(** Accept-and-store at snode [sid]: into the owning partition's table if
    [sid] owns [point], else into its replica table; LWW either way.
    [true] when the held cell changed. *)

val take : t -> table -> (int -> bool) -> (string * Dht_kv.Versioned.cell) list
(** Remove every cell whose point satisfies the predicate and return
    them, in reverse table order, as a [Transfer] payload. *)

val absorb : t -> table -> (int -> bool) -> unit
(** Move the table's snode's replica copies whose point satisfies the
    predicate into the table, each merged by LWW with the copy there:
    a snode that just gained partitions keeps one copy per key. *)

val take_orphans :
  t -> int -> (int -> bool) -> (string * int * Dht_kv.Versioned.cell) list
(** Remove snode [sid]'s replica copies whose point satisfies the
    predicate (partitions it no longer replicates), counting each as an
    orphan; returned sorted by key for the caller to route home. *)

(** {2 Reads} *)

val value : table -> string -> string option
(** The value the table holds under a key. *)

val lookup : t -> int -> point:int -> key:string -> Dht_kv.Versioned.cell option
(** Snode [sid]'s copy of [key], from whichever table {!store} uses. *)

val bindings : table -> (string * string) list
(** [(key, value)] of every cell, sorted. *)

val replica_bindings : t -> int -> (string * string) list
(** [(key, value)] of snode [sid]'s replica copies, sorted. *)

val digest : t -> int -> Span.t -> int * int
(** Cell count and XOR-folded cell digests of everything snode [sid]
    holds inside [span]: two snodes agree iff they hold the same cells. *)

val range : t -> int -> lo:int -> hi:int -> (string * Dht_kv.Versioned.cell) list
(** Every cell snode [sid] holds whose point lies in [\[lo, hi)], sorted by
    key: the replica side of one range-read leg. *)

(** {2 Anti-entropy} *)

val push : t -> int -> (int * Span.t) list -> (int * Wire.msg) list
(** Open a new push round on snode [sid], from a fresh snapshot of its
    live tree, and cut one {!Wire.Mt_root} per [(destination, span)] from
    it. No probe is ever cut from an older snapshot. *)

val answer :
  t ->
  int ->
  from:int ->
  synced:(point:int -> key:string -> Dht_kv.Versioned.cell -> unit) ->
  Wire.msg ->
  Wire.msg list
(** Snode [sid]'s answer to one anti-entropy message from [from]
    ([Repl_sync], [Mt_root], [Mt_request], [Mt_frames], [Mt_leaf] or
    [Mt_want]): its replies to [from], in send order. [synced ~point ~key
    cell] runs right after a sync freshened a held cell.
    @raise Invalid_argument on any other message. *)

val crash : t -> int -> unit
(** Drop snode [sid]'s soft state: the live tree (rebuilt on next use),
    the snapshot and the per-peer round markers. *)

(** {2 Audit and counters} *)

val audit : t -> int -> rmap:int list Point_map.t -> string list
(** Hash-tree consistency audit of snode [sid], one finding per line:
    - no key may be held both as a replica copy and in a partition table
      (the tree keeps one cell per key);
    - a private rebuild over the tables, and the live tree if one is
      held, must pass {!Dht_merkle.Merkle.check}, and the live tree must
      equal the rebuild;
    - the tree's frame for every span of [rmap] must equal the flat scan
      digest of that span.
    Side-effect free: the snapshot an in-flight descent reads is left
    untouched. Empty when consistent. *)

type ae_stats = {
  ae_roots : int;  (** root frames pushed, one per probed span *)
  ae_requests : int;  (** descent rounds: [Mt_request] messages sent *)
  ae_frames : int;  (** child frames served by owners *)
  ae_leaves : int;  (** divergent buckets resolved by key exchange *)
  ae_keys_sent : int;  (** cells shipped by all anti-entropy sync paths *)
}

val ae_stats : t -> ae_stats

val sync_cells : t -> int
(** Cells freshened by anti-entropy syncs. *)

val orphans : t -> int
(** Replica copies routed home by {!take_orphans}. *)

val record_metrics : t -> Dht_telemetry.Registry.t -> unit
(** Add the counters [runtime.repl.sync.cells], [runtime.repl.sync.orphans]
    and [runtime.ae.roots], [.requests], [.frames], [.leaves] and
    [.keys_sent]. *)
