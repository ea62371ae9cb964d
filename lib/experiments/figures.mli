(** Drivers regenerating every figure of the paper's evaluation (§4).

    Defaults match the paper: 1024 vnodes created consecutively, metrics
    sampled after each creation, 100-run averages. All drivers are
    deterministic given [seed]. *)

val fig4 :
  ?runs:int -> ?vnodes:int -> ?pairs:int list -> seed:int -> unit -> Curve.t list
(** Figure 4 — σ̄(Qv) vs V with [Pmin = Vmin] for each value in [pairs]
    (default [\[8; 16; 32; 64; 128\]]). One curve per pair. *)

val fig5 :
  ?runs:int ->
  ?vnodes:int ->
  ?vmins:int list ->
  ?alpha:float ->
  seed:int ->
  unit ->
  (int * float) list
(** Figure 5 — the parameter-choice functional
    θ = α·Vmin/max(Vmin) + (1−α)·σ̄/max(σ̄) with [Pmin = Vmin], using each
    configuration's final σ̄(Qv) (default α = 0.5, Vmin over
    [\[8; 16; 32; 64; 128\]]). *)

val argmin_theta : (int * float) list -> int
(** The Vmin minimizing θ (the paper finds 32).
    @raise Invalid_argument on an empty list. *)

val fig6 :
  ?runs:int ->
  ?vnodes:int ->
  ?pmin:int ->
  ?vmins:int list ->
  seed:int ->
  unit ->
  Curve.t list
(** Figure 6 — degradation of σ̄(Qv) when [Pmin = 32] and Vmin spans
    [\[8 .. 512\]]; [Vmin = 512] never splits group 0 within 1024 creations
    and thus reproduces the global approach. *)

type group_dynamics = {
  greal : Curve.t;  (** mean number of groups per V (figure 7) *)
  gideal : Curve.t;  (** ideal number of groups per V (figure 7) *)
  sigma_qg : Curve.t;  (** mean σ̄(Qg) per V (figure 8) *)
}

val fig7_fig8 :
  ?runs:int ->
  ?vnodes:int ->
  ?pmin:int ->
  ?vmin:int ->
  seed:int ->
  unit ->
  group_dynamics
(** Figures 7 and 8 — group-count evolution and between-group balance from
    the same runs ([Pmin = Vmin = 32] by default). *)

val fig9 :
  ?runs:int ->
  ?nodes:int ->
  ?pmin:int ->
  ?vmins:int list ->
  ?ch_points:int list ->
  seed:int ->
  unit ->
  Curve.t list
(** Figure 9 — σ̄(Qn) for Consistent Hashing with 32 and 64 points per node
    versus the local approach with [Pmin = 32] and Vmin over
    [\[32 .. 512\]], homogeneous nodes, one vnode per snode. CH curves come
    first in the result. *)

val zone1 :
  ?runs:int -> ?pmin_vmin:int -> seed:int -> unit -> Curve.t * Curve.t
(** §4.1.1 "1st zone" claim — over [1 <= V <= Vmax] there is a single group
    and the local σ̄(Qv) matches the global approach point-wise. Returns
    (local average, global) curves of length [Vmax]. *)

val plateau_ratios : Curve.t list -> (string * float * float) list
(** §4.1.1 "30%" claim — for each consecutive pair of fig-4 curves, the
    final σ̄ and the ratio to the previous curve's final σ̄ (1.0 for the
    first). "Each time Pmin and Vmin double, σ̄(Qv) decreases by nearly
    30%", i.e. ratios ≈ 0.7. *)

type cost_row = {
  vmin : int;
  mean_group_size : float;  (** mean Vg — the LPDR record count (§4.1.2) *)
  group_count : float;  (** mean number of groups at the end *)
  lpdr_bytes : float;  (** mean serialized LPDR size *)
  sync_snodes : float;
      (** mean distinct snodes per balancing event (1 vnode/snode) — the
          synchronization fan-out §4.1.2 worries about *)
  final_sigma : float;  (** the balance quality bought with those resources *)
}

val cost :
  ?runs:int ->
  ?vnodes:int ->
  seed:int ->
  unit ->
  cost_row list
(** §4.1.2's resource side of the θ tradeoff, measured: "if Vmin increases,
    there will be fewer, bigger groups of vnodes, with larger LPDR tables;
    the time consumed to sort a LPDR table will also grow...; bigger groups
    may require more synchronization". For each Vmin in 8, 16, ..., 512
    (Pmin = 32), grows the DHT and
    reports group sizes, LPDR bytes, synchronization fan-out and the final
    σ̄(Qv) they buy. *)

val stability :
  ?runs:int ->
  ?vnodes:int ->
  ?pmin:int ->
  ?vmin:int ->
  seed:int ->
  unit ->
  Curve.t * float
(** §4.1.1 8192-vnode claim — σ̄(Qv) remains "relatively stable" past the
    2nd-zone rise. Returns the curve and the least-squares slope (per 1000
    vnodes) of its second half; stability means a slope near 0. Defaults:
    8192 vnodes, 10 runs. *)
