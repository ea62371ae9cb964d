(** Wire protocol of the distributed snode runtime.

    Every value is a message payload exchanged between snodes over the
    simulated cluster network; {!size_bytes} estimates its serialized size
    so the network model charges realistic transfer times. *)

open Dht_core
open Dht_hashspace
module Versioned = Dht_kv.Versioned

type routed_op =
  | Op_create of { newcomer : Vnode_id.t }
      (** a vnode creation request: the owner of the routed point is the
          victim vnode (§3.6) *)
  | Op_put of { key : string; value : string; token : int }
  | Op_get of { key : string; token : int }
  | Op_sync of { key : string; cell : Versioned.cell }
      (** anti-entropy orphan return: a cell found on a snode that is no
          longer in its partition's replica set, routed home to the owner
          (which merges it by LWW; no reply) *)

type group_split = {
  parent : Group_id.t;
  left : Group_id.t;
  left_members : Plan.lpdr;  (** member, partition count *)
  right : Group_id.t;
  right_members : Plan.lpdr;
}

type prepare = {
  event : int;  (** balancing-event identifier, unique per coordinator *)
  split : group_split option;  (** set when the victim group was full *)
  target : Group_id.t;  (** group receiving the newcomer *)
  level_before : int;
  epoch_before : int;
      (** the target group's LPDR epoch when the event was planned; every
          participant commits the event at [epoch_before + 1], keeping all
          copies in lockstep (used to fence stale {!Lpdr_push} replies) *)
  plan : Plan.t;
  newcomer : Vnode_id.t;
  donor_batches : int;  (** transfers the newcomer must expect *)
}

type placement = (Span.t * Vnode_id.t * int list) list
(** Partitions with their new owner vnode and the replica set assigned to
    them — the snode ids (owner's snode first) computed by
    {!Dht_replication.Placement.replicas} at donation time. With
    [rfactor = 1] the list is just the owner's snode. *)

type msg =
  | Routed of { point : int; hops : int; retries : int; origin : int; op : routed_op }
      (** routed through (possibly stale) caches toward the owner of
          [point]; [origin] is the snode that issued the operation *)
  | Create_at_group of {
      group : Group_id.t;
      point : int;  (** kept for re-routing if the group has split away *)
      newcomer : Vnode_id.t;
      origin : int;
    }  (** sent to the group's manager snode *)
  | Prepare of prepare
  | Prepare_ack of { event : int; moved : placement }
      (** participant acknowledgement; donors report the partitions they
          shipped, to whom, and the replica set each was assigned *)
  | Transfer of {
      event : int;
      to_vnode : Vnode_id.t;
      spans : Span.t list;
      data : (string * Versioned.cell) list;
          (** keys migrating with the spans, with their versions *)
    }
  | All_received of { event : int }
      (** newcomer snode: every donor batch has arrived *)
  | Commit of { event : int; moved : placement }
      (** participants learn the final placement (owner and replica set)
          of the moved partitions; when replication is on the commit also
          fans out to every snode so the replica map never straddles a
          stale LPDR epoch *)
  | Create_done of { newcomer : Vnode_id.t }
  | Remove_request of { leaving : Vnode_id.t; origin : int; token : int }
      (** departure request, sent to the vnode's hosting snode *)
  | Remove_at_group of {
      group : Group_id.t;
      leaving : Vnode_id.t;
      origin : int;
      token : int;
    }  (** forwarded to the group's manager *)
  | Remove_prepare of {
      event : int;
      group : Group_id.t;
      leaving : Vnode_id.t;
      epoch_before : int;
          (** the group's LPDR epoch when the departure was planned; the
              event commits at [epoch_before + 1] (see {!prepare}) *)
      moves : Plan.move list;
      remaining : Plan.lpdr;  (** LPDR after the departure *)
    }
  | Remove_done of { token : int; ok : bool }
      (** to the origin; [ok = false] when the model refuses the departure
          (L2 floor, capacity, unknown vnode) *)
  | Put_ack of { token : int; hint : (Span.t * Vnode_id.t) option }
      (** single-copy write acknowledged at the owner. The runtime sends
          [hint = None]: routing learns from commits and stewards, not from
          replies. A [Some] hint would be charged one placement entry;
          perfbench's message model still builds the field. *)
  | Get_reply of {
      token : int;
      value : string option;
      hint : (Span.t * Vnode_id.t) option;
          (** always [None], as for {!Put_ack} *)
    }
  | Busy of { token : int }
      (** admission-control rejection: the coordinator could not finish the
          operation within its deadline and shed it {e before} touching any
          replica. The origin fails the op immediately instead of waiting
          out a timeout. A [Busy]-rejected write was never applied anywhere
          and must never be observed as committed. *)
  | Repl_put of { token : int; key : string; point : int; cell : Versioned.cell }
      (** quorum write: the coordinator fans the stamped cell to every
          replica of [point]; replicas accept-and-store (owner into its
          partition table, others into their replica table) *)
  | Repl_put_ack of { token : int }  (** one stored copy, counts toward W *)
  | Repl_get of { token : int; key : string; point : int }
      (** quorum read probe; answered from whichever table holds the key *)
  | Repl_get_reply of { token : int; cell : Versioned.cell option }
  | Repl_hinted of {
      token : int;
      target : int;
      key : string;
      point : int;
      cell : Versioned.cell;
    }
      (** sloppy quorum: [target] (a replica that did not acknowledge in
          time, presumed crashed) is skipped and the cell parked on the
          recipient, which acks toward W and owes [target] a
          {!Hint_flush} *)
  | Hint_flush of { key : string; point : int; cell : Versioned.cell }
      (** hinted-handoff drain, retried by the reliable layer until the
          crashed target returns *)
  | Hint_ack of { key : string }  (** target stored the flushed hint *)
  | Repl_repair of { key : string; point : int; cell : Versioned.cell }
      (** read repair: the freshest cell seen by a quorum read, pushed to
          the repliers that returned stale or missing data (no reply) *)
  | Repl_sync of { cells : (string * Versioned.cell) list }
      (** anti-entropy cell shipment; the receiver merges each cell by LWW
          and answers nothing *)
  | Ae_request
      (** broadcast by a recovering snode: please push an {!Mt_root} for
          every partition whose replica set includes me *)
  | Mt_root of { round : int; span : Span.t; count : int; vhash : int }
      (** anti-entropy opener from a partition's owner: the root frame of
          the owner's hash tree restricted to [span]. [round] stamps the
          owner's tree snapshot so the receiver rebuilds its own snapshot
          exactly once per reconciliation round. A receiver whose frame
          matches stays silent; otherwise it descends with {!Mt_request},
          or, when [count] is at most the runtime's [mt_threshold],
          answers at once with its {!Mt_leaf}. *)
  | Mt_request of { spans : Span.t list }
      (** tree descent: the receiver asks the owner for the child frames
          of each divergent span *)
  | Mt_frames of { frames : (Span.t * int * int * bool) list }
      (** owner's answer: [(span, count, hash, leaf)] per frame, two
          children per requested span ([leaf] marks frames the owner
          cannot refine further — descent below them must switch to key
          transfer via {!Mt_leaf}) *)
  | Mt_leaf of { span : Span.t; keys : (string * int) list }
      (** divergent-bucket resolution: [(key, digest)] of every cell the
          sender holds inside [span]. The receiver ships cells the sender
          lacks or holds stale ({!Repl_sync}) and
          asks for the rest with {!Mt_want} — so exactly the symmetric
          difference crosses the wire. *)
  | Mt_want of { keys : string list }
      (** the receiver of an {!Mt_leaf} requests the cells it lacks;
          answered with {!Repl_sync} *)
  | Range_get of { token : int; lo : int; hi : int }
      (** range-read probe: please answer with every cell whose hash
          point falls in [[lo, hi)] restricted to the partitions this
          replica holds *)
  | Range_reply of { token : int; lo : int; cells : (string * Versioned.cell) list }
      (** one replica's slice of a range read; [lo] identifies the
          coordinator-side leg the reply belongs to *)
  | Traced of { trace : int; span : int; hop : int; payload : msg }
      (** causal span context riding the payload: [trace] is the client
          operation's trace id, [span] the id of this wire edge (its parent
          is recorded in the span log, not on the wire), [hop] the
          propagation depth. Added only when the runtime traces causally;
          {!size_bytes} charges 20 extra bytes (trace id + span id + hop
          count) so the propagation overhead is visible in the byte
          accounting.
          Retransmissions of a frame keep the same [trace] but each actual
          transmission logs a fresh transmission span under [span]. *)
  | Batch of msg list
      (** transmission-batching envelope: every message a snode addressed
          to one destination within a linger window, coalesced into a
          single network send and delivered (and processed) in issue
          order. Parts are protocol messages, piggybacked {!Ack}s, or one
          {!Req}-framed sub-batch; {!size_bytes} charges one shared
          envelope plus a per-part frame header, amortizing the fixed
          envelope cost that dominates small-message traffic. *)
  | Req of { seq : int; relay : int; payload : msg }
      (** reliable-delivery frame: [seq] numbers the sender's stream toward
          one destination, which deduplicates by [(sender, seq)] and
          acknowledges with {!Ack}; the sender retransmits with backoff
          until acknowledged. Only used when a fault plan is active. The
          payload may be a {!Batch} of protocol messages — one sequence
          number, one retransmission timer and one ack then cover the
          whole batch. [relay] is [-1], or a third snode's cumulative
          {!Ack} riding home to the origin of a routed get or put along
          the walk (the transport packs who acked, whom and up to which
          seq into the one number); it costs one more [per_entry]. *)
  | Ack of { seq : int; floor : int }
      (** link-layer acknowledgement of a {!Req}; sent unreliably (a lost
          ack just provokes one more retransmission). [floor] makes the
          ack cumulative: the receiver has processed {e every} seq up to
          and including [floor], so the sender also retires any older
          outbox entries a lost ack left behind. *)
  | Lpdr_pull of { group : Group_id.t }
      (** crash recovery: a restarting snode asks the group's manager for a
          fresh LPDR copy *)
  | Lpdr_push of {
      group : Group_id.t;
      view : (int * int * Plan.lpdr) option;
    }
      (** manager's reply: [(level, epoch, counts)], or [None] when the
          manager no longer carries the group (it split away; the puller's
          pending commit will refresh its copy instead) *)
  | Lb_report of {
      origin : int;
      pull : bool;
      entries : Dht_balance.Summary.t list;
      owns : (Span.t * Vnode_id.t) list;
    }
      (** load dissemination: [origin]'s gossip view (push-pull rounds,
          [pull = true] asks the receiver to answer with its own view) or
          a single-entry report to [origin]'s load directory
          ([pull = false]). Entries merge version-fenced — an observer's
          view of any origin never regresses. [owns] piggybacks routing
          maintenance on the same message class: [origin]'s exact owned
          placements for the prefix regions the receiver stewards, learned
          into the receiver's bounded routing cache. [[]] on pure load
          gossip, leaving the balancer's bytes untouched. *)
  | Lb_proposal of { to_snode : int; emergency : bool }
      (** directory → heavy snode: shed one hot partition toward the light
          snode [to_snode]. [emergency] marks the hard-threshold path that
          bypassed the balance-round cadence (telemetry only; the receiver
          acts the same). Advisory: the receiver re-validates against its
          own state and may ignore it. *)
  | Lb_transfer of {
      group : Group_id.t;
      hot : Span.t;
      from_vnode : Vnode_id.t;
      to_snode : int;
      origin : int;
    }
      (** heavy snode → group manager: start a balancing event that swaps
          the hot partition [hot] out of [from_vnode] toward a group member
          hosted on [to_snode]. Serializes through the manager's group
          lock, exactly like {!Create_at_group}; the manager re-validates
          from its current LPDR copy and drops stale requests. *)
  | Lb_swap of {
      event : int;
      hot : Span.t;
      from_vnode : Vnode_id.t;
      to_vnode : Vnode_id.t;
    }
      (** manager → the two hosting snodes: the prepare of a hot-partition
          transfer. [from_vnode] donates [hot] (or its hottest remaining
          partition if [hot] has already migrated) to [to_vnode];
          [to_vnode] donates its coldest partition back. Per-vnode
          partition counts are unchanged, so the event never touches LPDRs
          — only placement moves, through the standard epoch-fenced
          Prepare_ack/Commit round, making the transfer indistinguishable
          from a join/leave migration to the invariant battery. *)

val cells_size : (string * Versioned.cell) list -> int
(** Serialized size of a [(key, cell)] payload list, as charged inside
    {!size_bytes} — exposed so byte-accurate heat can be charged for
    range replies without re-deriving the estimate. *)

val per_entry : int
(** Bytes charged per id, span or count entry, and per frame header: 16.
    A {!Req} costs [per_entry] plus its payload, and one more [per_entry]
    when it carries a relayed ack. *)

val size_bytes : msg -> int
(** Serialized-size estimate: 64-byte envelope, 16 bytes per id/span/count
    entry, string payloads at their length, versioned cells at value
    length plus a 16-byte version ({!Versioned.size_bytes}). A {!Batch}
    costs one envelope plus, per part, a 16-byte frame header and the
    part's body (the part's own envelope is amortized away):
    [size_bytes (Batch parts) = envelope
     + Σ (per_entry + size_bytes part - envelope)]. *)

val describe : msg -> string
(** Short human-readable tag, for tracing and the per-tag network traffic
    accounting ({!Dht_event_sim.Network.per_tag}). Allocation-free for
    every message real traffic produces (including single-level [Req]
    framing), so it is safe on the hot send path. *)
