(** The paper's invariants as pure predicates.

    Every check returns a list of structured findings — empty means the
    invariant battery holds. Model-level checks (over {!Dht_core.Local_dht}
    and {!Dht_core.Global_dht}) delegate to {!Dht_core.Audit} and lift its
    messages; snapshot-level checks re-derive the same battery from a
    {!Dht_snode.Runtime.View}, the canonical export of the distributed
    state.

    Invariant names follow the paper: G1/G1' (partitions tile [R_h]
    exactly), G2/G2' (group partition total a power of two), G3/G3' (all
    partitions at the group's split level), G4/G4'
    ([Pmin <= Pv <= Pmax = 2·Pmin]), G5/G5' (power-of-two vnode population
    implies equal counts), L1 (groups partition the vnode set), L2
    ([Vmin <= Vg <= Vmax = 2·Vmin], group 0 exempt while sole), plus
    [LPDR] (copy agreement and quota-vs-ownership consistency), [quota]
    (ΣQv = 1), [cache]/[rmap] (full routing coverage; [cache] also the
    entry bound) and [data] (keys live at their owner). *)

open Dht_core
module Runtime := Dht_snode.Runtime

type finding = { inv : string;  (** invariant name, e.g. ["G4"] *) detail : string }

val to_strings : finding list -> string list

val check_local : Local_dht.t -> finding list
(** G1'-G5', L1, L2 and quota conservation over the local-model oracle
    ({!Dht_core.Audit.check_local}).
    Needed by test_check (the battery on the local model). *)

val check_snode :
  space:Dht_hashspace.Space.t -> Runtime.View.snode_view -> finding list
(** The per-snode subset that holds at {e every} instant, including while
    a balancing commit is fanning out: routing-cache and replica-map
    coverage, and data placement. Safe from a
    {!Dht_snode.Runtime.set_on_commit} hook. *)

val check_view :
  ?route_cap:int ->
  space:Dht_hashspace.Space.t ->
  pmin:int ->
  vmax:int ->
  Runtime.View.t ->
  finding list
(** The full battery over one cluster snapshot: G1', LPDR agreement
    across live snodes' copies, G2'-G5', L1, L2, quota conservation, the
    routing-cache entry bound [route_cap] ([0], the default, means
    unbounded), and {!check_snode} on every snode, up or down (a crashed
    snode's durable state must stay well-formed). Meaningful at
    quiescence — LPDR copies legitimately diverge while a commit is in
    flight.
    Needed by test_check, which runs the battery on hand-corrupted views. *)

val check_runtime : Runtime.t -> finding list
(** {!check_view} over [Runtime.view rt] with the runtime's own
    parameters, including {!Dht_snode.Runtime.route_cap}. This is the
    runtime's one invariant battery. *)

val check_merkle : Runtime.t -> finding list
(** Hash-tree consistency audit ({!Dht_snode.Runtime.merkle_audit}):
    every live snode's freshly built snapshot tree must pass the
    structural check — interior hashes recomputable as the XOR of their
    children, counts additive, canonical shape — and its frame for every
    replicated partition span must equal the flat scan digest of that
    span. Findings carry the ["MERKLE"] invariant name. Valid at any
    instant (the audit builds its own snapshot). *)

val check_balance : ?acked:string list -> Runtime.t -> finding list
(** Active-balancing audit: the full {!check_runtime} battery — a
    hot-partition swap moves only placement, so G1–G5/L1–L2, LPDR
    agreement, quota conservation, coverage and data placement must all
    still hold after any number of swaps — plus a durability oracle over
    [acked]: every key whose write was acknowledged must still resolve at
    its owner's authoritative copy ({!Dht_snode.Runtime.peek}); a key
    that does not is a ["balance"] finding (the transfer lost data
    mid-flight). Meaningful at quiescence. *)
