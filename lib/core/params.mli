(** Model parameters (§2.2, §3.3).

    [pmin] bounds the number of partitions per vnode
    ([Pmin <= Pv <= Pmax = 2·Pmin], invariant G4/G4') and [vmin] bounds the
    number of vnodes per group ([Vmin <= Vg <= Vmax = 2·Vmin], invariant L2).
    Both must be powers of two and, once set, "remain constant for the
    lifetime of a DHT" (§4.1.2). *)

type t = private {
  space : Dht_hashspace.Space.t;
  pmin : int;  (** minimum partitions per vnode; a power of two *)
  vmin : int;  (** minimum vnodes per group; a power of two *)
}

val make : ?space:Dht_hashspace.Space.t -> pmin:int -> vmin:int -> unit -> t
(** [make ~pmin ~vmin ()] validates and freezes the parameters. [space]
    defaults to {!Dht_hashspace.Space.default}.
    @raise Invalid_argument if [pmin] or [vmin] is not a positive power of
    two. *)

val global : ?space:Dht_hashspace.Space.t -> pmin:int -> unit -> t
(** Parameters for the global approach: a single group that never splits
    ([vmin] is set to the largest representable power of two, so [Vmax] is
    never reached). *)

val check_quorum : rfactor:int -> read_quorum:int -> write_quorum:int -> unit
(** Validates a replication configuration: [1 <= R, W <= rfactor] and
    [R + W > rfactor], the quorum-intersection condition that makes a
    read overlap every acknowledged write on a stable replica set.
    @raise Invalid_argument otherwise. *)

val pmax : t -> int
(** [2 * pmin] (invariant G4/G4'). *)

val vmax : t -> int
(** [2 * vmin] (invariant L2); saturates at [max_int] for {!global}
    parameters. *)

val is_power_of_two : int -> bool
(** [is_power_of_two n] for positive [n]. *)

val log2_exact : int -> int
(** Base-2 logarithm of a positive power of two.
    @raise Invalid_argument otherwise. *)
