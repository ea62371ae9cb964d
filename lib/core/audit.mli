(** Run-time verification of the model's invariants.

    These checks re-derive every invariant of §2.2 and §3.3 from the live
    state (never from cached counters) and report all violations found. They
    are meant for tests and debugging; they are O(total partitions). *)

val check_global : Global_dht.t -> (unit, string list) result
(** All balancer checks plus G1 (the routing map tiles [R_h] exactly) and
    map/ownership consistency. *)

val check_local : Local_dht.t -> (unit, string list) result
(** All balancer checks per group plus G1', L1 (groups partition the vnode
    set — every routed vnode belongs to exactly one live group), L2 (group
    sizes within [\[Vmin, Vmax\]], with the paper's group-0 exception while
    it is the only group), unique group ids, and quota conservation
    (ΣQv = ΣQg = 1). *)
