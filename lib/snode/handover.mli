(** The placement-change protocol of the snode runtime, as a state
    machine: one two-phase round for a §3.6 creation (with its §3.7 group
    split), a departure and a load-driven hot-partition swap.

    One [t] per snode holds the protocol's state: its LPDR copies, the
    epoch and placement fences, the group locks of the groups it manages,
    the events it coordinates and the events it takes part in. {!step}
    feeds it one input and returns the actions the runtime carries out, in
    order. The module draws no random numbers and holds no engine,
    transport, store or routing cache; what it needs of them comes through
    {!env} and the inputs, so a checker can drive it alone.

    A round: the group's manager admits a request under the group lock and
    sends the prepare to every participant. Each participant gives its
    donations away (the runtime takes the spans and their keys first),
    ships them as Transfer batches, expects its own batches and
    acknowledges with the moved placements. On the last ack the manager
    commits: every participant (every snode, when replicated) installs the
    placements and the LPDR writes recorded at prepare time, each fenced on
    its epoch. The event completes once every receiving snode reported all
    its batches, and the lock passes to the next queued request. Data
    reaches its new owner before that owner seeds the new replicas: the
    owner seeds when both the commit and every batch have landed, in
    whichever order they come. *)

open Dht_core
open Dht_hashspace

type t

type lpdr = {
  mutable level : int;
  mutable epoch : int;
      (** bumped once per committed balancing event on the group; all
          copies move in lockstep, which fences stale {!Wire.Lpdr_push}
          replies *)
  mutable counts : Plan.lpdr;
}
(** One snode's copy of a group's LPDR. *)

type kind = [ `Create | `Remove | `Balance ]

type donation = {
  dst : Vnode_id.t;  (** receiving vnode *)
  spans : Span.t list;
  data : (string * Dht_kv.Versioned.cell) list;  (** the spans' keys *)
  reps : int list;  (** replica set of each span, owner's snode first *)
}
(** One batch a donor vnode of this snode gave away for a prepare. *)

type env = {
  now : unit -> float;  (** virtual time, for the round's latencies *)
  next_event : unit -> int;  (** a fresh, cluster-wide event id *)
  split : Plan.lpdr -> Plan.split;  (** §3.7 split of a full group *)
  hosts : Vnode_id.t -> bool;  (** the vnode lives on this snode *)
}
(** What the protocol asks of the runtime around one snode. *)

type input =
  | Msg of { from : int; msg : Wire.msg }
      (** a delivered (or locally handed) placement-change request or
          round message: [Create_at_group], [Remove_at_group],
          [Lb_transfer], [Prepare_ack], [Transfer], [All_received],
          [Commit], [Lpdr_pull] or [Lpdr_push] *)
  | Prepared of { from : int; msg : Wire.msg; shipped : donation list }
      (** a delivered [Prepare], [Remove_prepare] or [Lb_swap], with the
          donations the runtime made for it, in plan order *)
  | Resume of Group_id.t  (** admit the next request queued on the lock *)
  | Watchdog of int  (** the event's watchdog fired *)
  | Restart
      (** the snode restarted and replayed its parked work; a crash needs
          no input, since every piece of this state is durable *)

type action =
  | Send of int * Wire.msg  (** to the snode, through the transport *)
  | Local of Wire.msg  (** process at this snode, as if self-delivered *)
  | Resume_next of Group_id.t  (** feed [Resume] for the group next *)
  | Arm_watchdog of int
  | Clear_watchdog of int
  | Note_timeout of int  (** count a round timeout, if the snode is up *)
  | Apply of {
      to_vnode : Vnode_id.t;
      spans : Span.t list;
      data : (string * Dht_kv.Versioned.cell) list;
    }  (** install a Transfer batch at its local receiver *)
  | Lpdr_applied of { group : Group_id.t; epoch : int; local : Vnode_id.t list }
      (** a commit's fenced write of [group]'s LPDR copy took effect at
          [epoch]; the [local] vnodes now belong to [group] *)
  | Drop_vnode of Vnode_id.t  (** a departed vnode's (empty) record *)
  | Place of Wire.placement
      (** committed placements, each span with its owner (into the routing
          cache) and replica set (into the replica map) *)
  | Seed of Span.t list  (** push the spans to their replicas *)
  | Committed of int  (** the event's commit is fully applied here *)
  | Observe_prepare of { event : int; start : float; participants : int }
  | Observe_event of { event : int; kind : kind; start : float }
      (** the [2pc.prepare] and [2pc.event] spans and histograms *)
  | Skipped  (** a swap request dropped as stale *)

val create :
  sid:int ->
  snodes:int ->
  pmin:int ->
  vmax:int ->
  replicated:bool ->
  space:Space.t ->
  Span.t list ->
  t
(** The state of snode [sid] of [snodes], holding no LPDR copy; the spans
    (covering the space) start below every event's placement fence.
    [replicated] (rfactor > 1) fans commits out to every snode and seeds
    new replicas. *)

val bootstrap : t -> Group_id.t -> lpdr -> unit
(** Install the initial LPDR copy of a group. *)

val lpdr : t -> Group_id.t -> lpdr option
val fold_lpdrs : t -> (Group_id.t -> lpdr -> 'a -> 'a) -> 'a -> 'a

val group_snodes : Plan.lpdr -> int list
(** The snodes hosting a group's members, sorted. *)

val step : env -> t -> input -> action list
(** Apply one input to the snode's state and return the actions to carry
    out, in order. Requests for a locked group wait until the lock frees;
    a [Resume_next] action then asks for them one at a time, so that a
    queued creation plans (and draws its split) only after every action
    before it ran.
    @raise Failure on an ack or completion for an unknown event.
    @raise Invalid_argument on a message the protocol does not handle. *)
