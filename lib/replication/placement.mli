(** Replica placement policy.

    Each partition gets [rfactor] copies on distinct snodes of the ring
    [0 .. n-1]: the snode hosting the owner vnode first, then ring
    successors — preferring snodes {e outside} the owner's group and
    falling back to distinct in-group snodes only when the cluster is too
    small to avoid them. Placement is computed when a partition is
    (re)placed by the balancer and travels with the epoch-fenced commit;
    it is deterministic, so donors, coordinator and replicas all derive
    the same set. *)

val replicas :
  rfactor:int -> n:int -> primary:int -> group_snodes:int list -> int list
(** [replicas ~rfactor ~n ~primary ~group_snodes] is the replica set of a
    partition whose owner vnode lives on snode [primary], in a cluster of
    [n] snodes, where [group_snodes] are the snodes hosting members of
    the owner's group (the correlated-failure unit to spread away from;
    [primary] itself may appear in it). The result has
    [min rfactor n] distinct elements and starts with [primary]. The ring
    walk stops as soon as the set is full, so the cost does not grow with
    [n] while out-of-group snodes are plentiful.
    @raise Invalid_argument if [n <= 0] or [rfactor <= 0]. *)

val successor : n:int -> avoid:int list -> start:int -> int option
(** [successor ~n ~avoid ~start] walks the ring from [start + 1] and
    returns the first snode not in [avoid] — the hinted-handoff fallback
    for a crashed replica. [None] when every snode is avoided. *)

val pp : Format.formatter -> int list -> unit
