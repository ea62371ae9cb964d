(** Partitions of the hash range as dyadic spans.

    Every partition of the model "results from the binary split of another
    partition" starting from the whole range (§3.4), so a partition is fully
    described by its {e split level} [l] and its {e index} within level [l]:
    it covers [\[index·2^(Bh−l), (index+1)·2^(Bh−l))] and has size
    [2^Bh / 2^l]. This canonical form makes invariant G3/G3' (equal size
    within a level) and binary splitting structural. *)

type t = private { level : int; index : int }
(** A dyadic span. [level >= 0] and [0 <= index < 2^level]. *)

val root : t
(** Level 0, covering the whole of [R_h]. *)

val make : Space.t -> level:int -> index:int -> t
(** @raise Invalid_argument if [level] exceeds the space's max level or
    [index] is outside [\[0, 2^level)]. *)

val level : t -> int

val index : t -> int

val size : Space.t -> t -> int
(** Number of hash indices covered: [2^(Bh - level)]. *)

val start : Space.t -> t -> int
(** First hash index covered. *)

val stop : Space.t -> t -> int
(** One past the last hash index covered. *)

val quota : Space.t -> t -> float
(** Fraction of [R_h] covered: [1 / 2^level]. *)

val split : Space.t -> t -> t * t
(** [split sp t] is the two halves of [t] (left first).
    @raise Invalid_argument if [t] is already at the space's max level. *)

val parent : t -> t option
(** The span whose split produced [t]; [None] for {!root}.
    Needed by test_hashspace (split and parent agree). *)

val contains : Space.t -> t -> int -> bool
(** [contains sp t p] — does span [t] cover hash index [p]? *)

val of_point : Space.t -> level:int -> int -> t
(** [of_point sp ~level p] is the unique level-[level] span containing [p].
    Needed by test_hashspace (span properties drawn from random points).
    @raise Invalid_argument if [p] is outside the space or [level] invalid. *)

val overlap : t -> t -> bool
(** Whether two spans intersect (true iff one is an ancestor of, or equal
    to, the other). *)

val compare : t -> t -> int
(** Total order: by start position, then by level (coarser first). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
