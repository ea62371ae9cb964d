(** Cluster interconnect model.

    The paper's model targets clusters with "short (typically one-hop)
    communication paths and high bandwidth" (§5); messages therefore see a
    flat topology: a fixed per-message base latency plus a serialization
    time proportional to the payload. Local deliveries (same node) cost a
    configurable loopback latency. The network counts messages and bytes so
    protocols can be compared on traffic. *)

type link = { base_latency : float; byte_time : float }
(** One-way cost of a message of [b] bytes: [base_latency +. byte_time *. b]
    (seconds). *)

val gigabit : link
(** 50 µs base latency, 1 Gb/s serialization — a 2004-era cluster fabric. *)

val link : base_latency:float -> byte_time:float -> link
(** @raise Invalid_argument on negative parameters. *)

type t

val create : ?loopback:float -> ?faults:Fault.t -> Engine.t -> link -> t
(** [create engine link] attaches a network to the simulation engine.
    [loopback] is the latency of node-local deliveries (default 1 µs).
    When a {!Fault} plan is given, every remote delivery is subjected to
    it; without one the network is perfectly reliable, exactly as before. *)

val faults : t -> Fault.t option
(** The fault plan given at {!create}, if any. *)

type verdict = Pass | Defer of float | Sink | Twice
(** A schedule probe's ruling on one remote send. [Pass] delivers normally;
    [Defer d] stretches the nominal link delay by [d] seconds (jitter, if
    any, applies on top) — a bounded reordering primitive; [Sink] counts the
    send in every statistic but never schedules delivery, modelling a
    message silently lost in the fabric; [Twice] counts it once but delivers
    it twice, each copy as [Pass] would (under a fault plan, each with its
    own drop roll, jitter and duplicate roll), modelling a fabric that
    duplicates it. *)

val set_probe :
  t ->
  (site:int -> src:int -> dst:int -> tag:string option -> verdict) option ->
  unit
(** Install (or with [None] remove) the decision-site probe. Each remote
    send — loopback deliveries are exempt — is a numbered {e decision site}:
    sites are numbered 0, 1, 2, … in send order, which is deterministic for
    a fixed seed, so a site index recorded in one run names the same send in
    a replay. The probe is consulted synchronously inside {!send}, after all
    counters have been updated; its verdict shapes only the delivery. *)

val sites : t -> int
(** Remote sends seen so far — the exclusive upper bound of the decision-site
    numbering. Counted whether or not a probe is installed. *)

val set_ingress_limit : t -> int -> unit
(** Bound every node's ingress queue: at most [n] remote deliveries may be
    in flight toward any one destination (scheduled but not yet landed).
    A delivery that would exceed the bound is dropped at the door and
    counted in {!ingress_overflows} — overload becomes loss, which the
    reliable layer turns into retransmissions. [0] (the default) leaves
    ingress unbounded, preserving the historical model exactly.
    @raise Invalid_argument on a negative limit. *)

val max_ingress_high_water : t -> int
(** The deepest any ingress queue has been (since the last
    {!reset_counters}, which rebases high-water marks to current depth) —
    the bound the overload audit checks against the configured limit. *)

val ingress_overflows : t -> int
(** Deliveries refused because the destination's ingress queue was full. *)

val send :
  t -> ?tag:string -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit
(** [send t ~src ~dst ~bytes k] delivers the message after the link delay
    and then runs [k]. Counts one message and [bytes] bytes (loopback
    deliveries count separately). When [tag] is given (protocol layers pass
    their wire-message tag, e.g. {!Dht_snode.Wire.describe}), the send is
    also accounted in the per-tag breakdown ({!per_tag}). Under a fault
    plan the message may be dropped (drop roll, or destination down at
    delivery time), duplicated, or delayed by jitter; {e all} counters —
    totals and per-tag — count the {e send}, whatever its fate: an
    injected duplicate is one send, and is counted by the fault plan itself
    ({!Fault.duplicates}), not by the network. A gray-failed destination
    ({!Fault.set_slow}) stretches the delivery latency by its service-time
    factor. Loopback deliveries are
    never subjected to faults or ingress bounds. Each delivery schedules
    one engine event: [k] itself when neither an ingress slot nor a fault
    plan has to act on landing. Random draws happen in a fixed order: the
    drop roll, the delivery's jitter, the duplicate roll, then the
    duplicate's jitter; a delivery refused by the ingress bound draws no
    jitter.
    @raise Invalid_argument if [bytes < 0]. *)

val account_batch : t -> parts:int -> saved:int -> unit
(** Record that the remote message just counted by {!send} was a coalesced
    envelope carrying [parts] protocol messages, and that amortizing the
    fixed envelope cost saved [saved] bytes versus sending each part alone.
    Purely statistical — {!messages}/{!bytes_sent} are untouched.
    @raise Invalid_argument if [parts < 1] or [saved < 0]. *)

val messages : t -> int
(** Remote messages sent so far. *)

val batches : t -> int
(** Coalesced envelopes reported by {!account_batch}. *)

val batched_parts : t -> int
(** Protocol messages that travelled inside coalesced envelopes. *)

val batch_bytes_saved : t -> int
(** Envelope bytes saved by coalescing, summed over all batches. *)

val bytes_sent : t -> int
(** Remote bytes sent so far. *)

val local_deliveries : t -> int

val per_tag : t -> (string * int * int) list
(** Remote traffic broken down by the [tag] passed to {!send}:
    [(tag, messages, bytes)], sorted by tag. Untagged sends appear only in
    the totals. *)

val reset_counters : t -> unit
(** Zero the totals and clear the per-tag breakdown. *)
