(** Per-op causal-tree reconstruction and critical-path analysis.

    Reads back the [cat = "causal"] events the snode runtime emits when
    causal tracing is on (see DESIGN.md, "Causal observability"):

    - [op.begin] / [op.end] — a client op's root span and its completion,
      linked to the span that caused the completion;
    - [msg.send] — a wire edge: one protocol message entering the
      transmission path, parented on the span active at the sender;
    - [msg.xmit] — one actual transmission of that edge (retransmissions
      log one each, same trace id, fresh span id);
    - [msg.recv] — first delivery of the edge at the destination.

    From these it rebuilds each op's causal tree, audits it for
    well-formedness, extracts the critical path (the chain of edges from
    the op root to the span that completed the op) and decomposes op
    latency into queue / retransmit / network / service components that
    sum {e exactly} to the measured latency:

    - per edge, [queue] = first transmission − send (sender-side wait:
      linger, backpressure, inflight-window parking),
      [retransmit] = last delivery-relevant transmission − first,
      [network] = delivery − last transmission;
    - [service] is the residual time at snodes between causal hops. *)

type t

val load : string -> (t, string) result
(** Read a JSONL trace file (one event per line). Chrome-format traces are
    not supported — analysis needs the JSONL sink. *)

val events : t -> int
(** Non-empty lines consumed (causal or not). *)

val op_count : t -> int
val edge_count : t -> int

val malformed : t -> string list
(** Lines that failed to parse or referenced unknown spans. *)

val audit : t -> string list
(** Well-formedness findings, empty on a healthy trace: every edge's
    parent exists and is older (spans come from one monotonic counter, so
    parent ≥ child means a cycle), parents share the child's trace id,
    every edge walks up to its op root, receives do not precede sends. *)

type breakdown = {
  queue : float;
  network : float;
  service : float;
  retransmit : float;
  total : float;
}

type step = {
  s_tag : string;  (** wire tag of the edge ({!Dht_snode.Wire.describe}) *)
  s_src : int;
  s_dst : int;
  s_queue : float;
  s_retransmit : float;
  s_network : float;
  s_attempts : int;  (** transmissions of this edge (1 = no retransmit) *)
}

type analyzed = {
  a_trace : int;
  a_op : string;
  a_outcome : string;  (** ["ok"], ["busy"] or ["fail"] *)
  a_breakdown : breakdown;
  a_recorded : float option;
      (** the runtime's own latency measurement for this op (from the
          [cat = "sim"] "op" span), when present in the trace *)
  a_path : step list;  (** critical path, root-to-completion order *)
}

type analysis = {
  complete : analyzed list;  (** slowest first *)
  unfinished : int;  (** ops with no [op.end] (pending at trace end) *)
  broken : int;  (** finished ops whose critical path did not reconstruct *)
}

val analyze : t -> analysis

val sum_mismatches : ?tolerance:float -> analysis -> string list
(** Ops whose component sum differs from the recorded latency (the
    runtime's own measurement when present, else the causal [end − begin])
    by more than [tolerance] (relative, default [1e-9]). Empty on a
    healthy trace — the CI smoke gate. *)

type component_summary = {
  c_name : string;
  c_p50 : float;
  c_p99 : float;
  c_share : float;  (** percent of summed op latency in this component *)
}

val summarize : analysis -> component_summary list
(** Queue / network / service / retransmit / total, in that order. *)

val percentile : float list -> float -> float
