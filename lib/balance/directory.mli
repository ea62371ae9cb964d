(** Load directories (after [lb_active_directories.erl], implementing
    Godfrey et al.'s many-to-many scheme): hash-located directory snodes
    collect per-snode load reports, split reporters into light and heavy
    against the cluster-average heat, and pair the heaviest with the
    lightest to propose hot-partition transfers. An {e emergency} report —
    heat past [emergency_factor × average] — bypasses the round cadence.

    The directory is pure bookkeeping; the runtime owns all messaging. *)

type t

val create : unit -> t

val note : t -> Summary.t -> bool
(** Version-fenced install of a report; [false] when stale. *)

val reset : t -> unit
(** Forget everything (crash semantics — directory state is soft). *)

val locate : snodes:int -> count:int -> int list
(** The [min count snodes] distinct directory snodes of a cluster, chosen
    by hashing the directory index: a pure function of the cluster size,
    identical at every snode. *)

val directory_for : snodes:int -> count:int -> origin:int -> int
(** The directory snode [origin] reports to (round-robin over
    {!locate}). *)

val classify : t -> Policy.t -> Summary.t list * Summary.t list
(** [(light, heavy)]: lights ascending by heat, heavies descending.
    A heavy must own ≥ 2 partitions (transfers are one-for-one swaps). *)

val pair :
  light:Summary.t list -> heavy:Summary.t list ->
  (Summary.t * Summary.t) list
(** Many-to-many proposal pairs: k-th heaviest with k-th lightest. *)

val emergency : t -> Policy.t -> Summary.t -> bool
(** Whether a just-installed report crosses the emergency threshold. *)

val lightest_except : t -> origin:int -> Summary.t option
(** Lightest reporter other than [origin] — the emergency destination. *)

val admit_proposal : t -> Policy.t -> origin:int -> now:float -> bool
(** Rate limit: admits at most one proposal about [origin] per
    [min_spacing]; advances the stamp when it admits. *)
