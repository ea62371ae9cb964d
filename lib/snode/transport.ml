module Engine = Dht_event_sim.Engine
module Network = Dht_event_sim.Network
module Registry = Dht_telemetry.Registry
module Histogram = Dht_telemetry.Histogram
module Trace = Dht_telemetry.Trace
module Rng = Dht_prng.Rng

(* Reliable-delivery ceiling: retransmission backoff never exceeds
   [rto_cap] (also the probe cadence of a poisoned route), and a route is
   poisoned after [poison_after] consecutive timeouts. *)
let rto_cap = 0.05
let poison_after = 5

(* No relayed ack (see [Wire.Req]'s [relay] and "relayed acks" below). *)
let no_relay = -1

let log_src =
  Logs.Src.create "dht.snode.transport" ~doc:"Snode-to-snode transport"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Int-keyed tables with the generic table's hash, so bucket and iteration
   order are exactly those of a [(int, _) Hashtbl.t]; only the polymorphic
   compare on every probe goes. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Reliable-delivery state toward/from one remote snode. The sender side
   (sequence counter, outbox of unacked messages) and the receiver side
   (dedup window) live in one record keyed by the peer's sid. All of it is
   modelled as durable (write-ahead-logged): a crash only kills the
   retransmission timers, which restart re-arms from the outbox.

   A snode meets far more peers over a run than it has conversations
   open with, so a peer record keeps only its sequence counter, dedup
   floor and RTT estimate. Everything that is only in use while traffic
   is in flight (the three queues, the window count, the route's
   suspicion) lives in a separate [queues] record. An idle peer shares
   the never-written [no_queues]; a peer takes a private record from its
   endpoint's pool on its first write and gives it back once every
   queue is released and the route is unsuspected. The queues themselves
   are likewise allocated on first write and released when drained: an
   idle record holds the empty sentinels below, which nothing ever
   inserts into.

   An outbox entry is its own retransmission timer: it keeps the armed
   flag, the deadline and the queue slot of its latest arming, and one
   closure made with the entry, which every arming pushes
   ({!Engine.push}). The closure acts only while the entry is armed and
   the clock has reached the latest deadline, so a superseded queue entry
   dispatches as a no-op. A
   retired entry clears its latest queue entry ({!Engine.clear}) and
   drops its frame for the shared [no_payload]: a superseded older
   queue entry (left by a restart or a flushed poisoned route) still
   holds the closure, and the entry with it, until its own deadline
   dispatches it as a no-op, but no longer the message. *)

(* All-float, so stored flat: both times are written unboxed. *)
type stamps = {
  mutable sent : float;  (* virtual time of the last transmission *)
  mutable due : float;  (* deadline of the latest retransmission arming *)
}

type outmsg = {
  mutable o_frame : Wire.msg;
      (* the [Wire.Req] as sent, made once for every transmission (so its
         relayed ack, if any, rides each); [no_payload] once retired *)
  mutable o_attempts : int;
  o_at : stamps;
  mutable o_live : bool;
      (* inside the bounded transmission window (timer armed); [false]
         while parked in the peer's backlog waiting for a slot *)
  mutable o_armed : bool;  (* a retransmission deadline is pending *)
  mutable o_slot : int;  (* queue slot of the latest arming; -1 before *)
  mutable o_fire : unit -> unit;  (* set once, right after creation *)
}

(* A route's Jacobson estimator. All-float, so it is stored flat and an
   update writes unboxed numbers; a peer points at the shared [no_rtt]
   until its first sample. *)
type rtt = { mutable srtt : float; mutable rttvar : float }

type queues = {
  mutable outbox : outmsg Itbl.t;  (* seq -> unacked message *)
  mutable oldest : int;
      (* no seq below this is in [outbox]: a lower bound, set to the next
         seq when the record is taken and advanced lazily by [on_ack], so
         a cumulative ack with nothing older outstanding retires without
         walking the table *)
  mutable grown : bool;  (* [outbox] has resized past its initial buckets *)
  mutable backlog : int Queue.t;
      (* seqs staged past the inflight window, promoted in order as acks
         retire window entries; entries stay in [outbox] (durable) *)
  mutable live : int;  (* outbox entries currently inside the window *)
  mutable seen : unit Itbl.t;  (* processed seqs above the peer's floor *)
  mutable suspect : bool;  (* route poisoned after repeated timeouts *)
  mutable strikes : int;
      (* consecutive retransmission timeouts — the route's graded suspicion
         level; poisoning at [poison_after] is just the top of the scale,
         and admission control reads the raw level below it *)
  mutable q_next : queues;  (* next free record in the pool, or [no_queues] *)
}

type peer = {
  mutable next_seq : int;
  mutable floor : int;  (* every seq <= floor from this peer was processed *)
  mutable rtt : rtt;  (* smoothed RTT and its variance; 0 = no sample yet *)
  mutable q : queues;  (* [no_queues] while idle *)
}

(* Per-destination transmission-coalescing buffer: protocol messages (and
   piggybacked acks) addressed to one peer wait here, then leave as a
   single envelope ([Wire.Batch]): for one linger window while the peer
   owes an ack (or there is no fault plan), else only until the event
   that staged them ends. Staged parts are modelled as durable, like the
   reliable outbox they feed; only the flush timer dies with a crash
   (restart re-arms it).

   A buffer is its own flush timer, like an outbox entry (armed flag,
   flat deadline, one closure made with it), with no slot: a buffer lives
   as long as its endpoint, so its queue entries pin nothing else.

   A snode stages toward far more destinations over a run than hold parts
   at once, so buffers are pooled per endpoint, and [obufs] binds a
   destination only while it holds one. A destination takes a buffer
   from the pool when its first part stages, and gives it back, binding
   and all, when its timer's flush leaves it empty. A flush forced by
   [flush_lingering], or cut short by a crash, keeps the buffer bound
   until the last queued arming of its timer has run, so a superseded
   queue entry can only ever fire for the destination that armed it.
   Whatever walks the bindings in an order that can show ([restart],
   [flush_lingering]) walks them by destination. *)

(* All-float, so stored flat: re-arming writes the deadline unboxed. *)
type deadline = { mutable at : float }

type obuf = {
  mutable ob_dst : int;  (* -1 while free *)
  mutable ob_parts : Wire.msg list;  (* newest first *)
  mutable ob_acked : bool;  (* an ack may be among [ob_parts] *)
  mutable ob_relay : int;  (* the relay the next frame carries, or [no_relay] *)
  mutable ob_armed : bool;  (* a flush is pending *)
  mutable ob_queued : int;  (* queue entries of its armings not yet run *)
  ob_due : deadline;
      (* of the latest arming, kept while an older arming is queued *)
  mutable ob_fire : unit -> unit;  (* set once, right after creation *)
  mutable ob_next : obuf;  (* next free buffer in the pool, or [no_obuf] *)
}

(* ---------------- shared sentinels ---------------- *)

(* The shared empty queues of every peer without traffic in flight.
   Nothing is ever inserted into them: each insertion below first swaps
   in a real queue, created with the size the eager tables had, so a
   peer's bucket layout is what it always was. They are still walked, and
   a [Hashtbl] walk briefly flips a field of its table, so these
   process-wide sentinels keep the transport on one domain. A route
   without an RTT sample reads [no_rtt]'s zeros; [rtt_sample] swaps in a
   real estimator before its first write. *)
let table_size = 4
let no_outbox : outmsg Itbl.t = Itbl.create table_size
let no_seen : unit Itbl.t = Itbl.create table_size
let no_backlog : int Queue.t = Queue.create ()
let no_rtt = { srtt = 0.; rttvar = 0. }

(* The queue record of every idle peer, and the end of a free list. *)
let rec no_queues =
  { outbox = no_outbox; oldest = 0; grown = false; backlog = no_backlog;
    live = 0; seen = no_seen; suspect = false; strikes = 0;
    q_next = no_queues }

(* What a destination without a buffer finds, and the end of a free list.
   It is never armed, so its closure never runs. *)
let rec no_obuf =
  { ob_dst = -1; ob_parts = []; ob_acked = false; ob_armed = false;
    ob_relay = no_relay; ob_queued = 0; ob_due = { at = 0. }; ob_fire = ignore;
    ob_next = no_obuf }

(* The payload of a retired outbox entry; nothing reads it, as a retired
   entry is never armed again. Immutable, so it needs no audit. *)
let no_payload = Wire.Batch []

(* A record with every queue released (a grown outbox never is) and an
   unsuspected route holds nothing an idle peer lacks; a [blank] one, as
   it waits in a pool, counts nothing either. *)
let idle q =
  q.outbox == no_outbox && q.backlog == no_backlog && q.seen == no_seen
  && q.strikes = 0 && not q.suspect

let blank q = idle q && q.live = 0 && not q.grown

(* The one audit rule of the sentinels: none is ever written. Each is
   named with whether it still reads as made. *)
let sentinels () =
  [ ("no_outbox", Itbl.length no_outbox = 0);
    ("no_seen", Itbl.length no_seen = 0);
    ("no_backlog", Queue.is_empty no_backlog);
    ("no_rtt", no_rtt.srtt = 0. && no_rtt.rttvar = 0.);
    ("no_queues", blank no_queues && no_queues.oldest = 0
                  && no_queues.q_next == no_queues);
    ("no_obuf", no_obuf.ob_dst = -1 && no_obuf.ob_parts = []
                && (not no_obuf.ob_acked) && no_obuf.ob_relay = no_relay
                && (not no_obuf.ob_armed)
                && no_obuf.ob_queued = 0 && no_obuf.ob_due.at = 0.
                && no_obuf.ob_next == no_obuf) ]

(* ---------------- record pools ---------------- *)

(* An intrusive free list of records that link through a field of their
   own, so taking or giving one back allocates nothing. [made] counts the
   records ever made for the pool: free plus in use adds up to it. *)
module Pool (R : sig
  type t

  val nil : t  (* the never-written record that ends the list *)
  val next : t -> t
  val set_next : t -> t -> unit
end) =
struct
  type t = { mutable free : R.t; mutable made : int }

  let create () = { free = R.nil; made = 0 }

  (* The list's head, unlinked, or [R.nil] when the list is empty: the
     caller then makes a record and counts it with [fresh]. *)
  let take p =
    let r = p.free in
    if r != R.nil then (p.free <- R.next r; R.set_next r R.nil);
    r

  let fresh p r = p.made <- p.made + 1; r
  let give p r = R.set_next r p.free; p.free <- r

  (* Calls [f] on each free record and returns their count. The walk stops
     one past [made], so a cycle cannot hang it. *)
  let walk p f =
    let n = ref 0 and r = ref p.free in
    while !r != R.nil && !n <= p.made do
      f !r; incr n; r := R.next !r
    done;
    !n
end

module Queues = Pool (struct
  type t = queues
  let nil = no_queues and next q = q.q_next and set_next q n = q.q_next <- n
end)

module Buffers = Pool (struct
  type t = obuf
  let nil = no_obuf and next b = b.ob_next and set_next b n = b.ob_next <- n
end)

(* Destination -> the buffer bound to it, for the destinations holding one
   only. Open addressing over two arrays (keys, -1 in an empty slot, and
   buffers, [no_obuf] in an empty slot) with linear probing and
   backward-shift deletion, so binding, finding and unbinding allocate
   nothing; only growth does, once the table would be over half full. A
   chained [Hashtbl] would allocate a bucket on every re-bind. Its slot
   order is no destination order: walks that can show sort. *)
module Bound = struct
  type t = {
    mutable keys : int array;
    mutable bufs : obuf array;
    mutable count : int;
  }

  let create () =
    { keys = Array.make 8 (-1); bufs = Array.make 8 no_obuf; count = 0 }

  (* The slot holding [dst], or the empty slot that ends its probe run;
     the table is never full, so one exists. *)
  let slot ix dst =
    let mask = Array.length ix.keys - 1 in
    let i = ref (dst land mask) in
    while ix.keys.(!i) <> dst && ix.keys.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    !i

  (* [dst]'s buffer, or [no_obuf] while it holds none. *)
  let find ix dst = if ix.count = 0 then no_obuf else ix.bufs.(slot ix dst)

  let rec bind ix dst ob =
    let i = slot ix dst in
    if ix.keys.(i) = dst then ix.bufs.(i) <- ob
    else if 2 * (ix.count + 1) > Array.length ix.keys then begin
      let keys = ix.keys and bufs = ix.bufs in
      ix.keys <- Array.make (2 * Array.length keys) (-1);
      ix.bufs <- Array.make (2 * Array.length keys) no_obuf;
      ix.count <- 0;
      Array.iteri (fun j k -> if k >= 0 then bind ix k bufs.(j)) keys;
      bind ix dst ob
    end
    else begin
      ix.keys.(i) <- dst;
      ix.bufs.(i) <- ob;
      ix.count <- ix.count + 1
    end

  (* Empty [dst]'s slot, then shift each later entry of the probe run
     whose home is not cyclically after the hole back into it. *)
  let unbind ix dst =
    if ix.count > 0 then begin
      let mask = Array.length ix.keys - 1 in
      let hole = ref (slot ix dst) in
      if ix.keys.(!hole) = dst then begin
        ix.count <- ix.count - 1;
        let j = ref ((!hole + 1) land mask) in
        while ix.keys.(!j) >= 0 do
          let home = ix.keys.(!j) land mask in
          if (!j - home) land mask >= (!j - !hole) land mask then begin
            ix.keys.(!hole) <- ix.keys.(!j);
            ix.bufs.(!hole) <- ix.bufs.(!j);
            hole := !j
          end;
          j := (!j + 1) land mask
        done;
        ix.keys.(!hole) <- -1;
        ix.bufs.(!hole) <- no_obuf
      end
    end

  (* Every binding, by ascending destination. *)
  let sorted ix =
    let acc = ref [] in
    Array.iteri
      (fun i k -> if k >= 0 then acc := (k, ix.bufs.(i)) :: !acc)
      ix.keys;
    List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc

  let iter f ix =
    Array.iteri (fun i k -> if k >= 0 then f k ix.bufs.(i)) ix.keys
end

(* One snode's end of the transport. *)
type endpoint = {
  sid : int;
  rng : Rng.t;  (* the snode's stream: retransmission jitter draws here *)
  mutable up : bool;  (* a down endpoint absorbs every delivery *)
  peers : peer Itbl.t;
  obufs : Bound.t;  (* destination -> its buffer, while it holds one *)
  mutable spare : outmsg Itbl.t;
      (* one drained, never-grown outbox kept for the next peer that needs
         one, or [no_outbox]; it equals a fresh table *)
  queues : Queues.t;  (* bound to peers, or free *)
  buffers : Buffers.t;  (* bound to destinations, or free *)
  mutable carry : int;
      (* while a frame whose relay acks another snode is delivered here:
         that relay, until a send takes it on; [no_relay] otherwise *)
}

type counters = {
  mutable timeouts : int;
  mutable retransmits : int;
  mutable probes : int;  (* rate-limited retransmissions past the budget *)
  mutable backpressured : int;  (* messages parked by a full window *)
  mutable reliable_msgs : int;  (* messages entered into reliable delivery *)
  mutable outbox_peak : int;  (* deepest any peer outbox has been *)
}

type t = {
  engine : Engine.t;
  net : Network.t;
  reliable : bool;  (* the network has a fault plan: frame remote sends *)
  rto : float;  (* initial retransmission timeout *)
  retry_budget : int;  (* fast retransmissions per message; 0 = unlimited *)
  adaptive_rto : bool;  (* Jacobson/Karn RTO from per-route RTT samples *)
  max_inflight : int;  (* per-peer transmission window; 0 = unbounded *)
  linger : float;  (* coalescing window; 0 = batching off *)
  trace : Trace.t;
  xmit : (tid:int -> attempt:int -> Wire.msg -> unit) option;
  i_rto : Histogram.t option;  (* retransmission-timer delays as armed *)
  i_batch : Histogram.t option;  (* batch occupancy: messages per envelope *)
  deliver : dst:int -> from:int -> Wire.msg -> unit;
  eps : endpoint array;
  c : counters;
}

(* ---------------- per-peer queue lifecycle ---------------- *)

(* A table resizes once it holds more than twice its bucket count, so an
   outbox created with 16 buckets first grows at its 33rd entry. *)
let grow_threshold = 2 * (Itbl.stats no_outbox).num_buckets

let create engine net ~rngs ~rto ~retry_budget ~adaptive_rto ~max_inflight
    ~linger ~metrics ~trace ~xmit ~deliver =
  let hist f = Option.map f metrics in
  {
    engine; net; reliable = Network.faults net <> None;
    rto; retry_budget; adaptive_rto; max_inflight; linger; trace; xmit;
    i_rto = hist (fun reg -> Registry.histogram reg "runtime.rto.delay");
    (* Batch occupancy is a small count: unit buckets doubling from 1. *)
    i_batch =
      hist (fun reg ->
          Registry.histogram reg ~lo:1.0 ~growth:2.0 ~bins:10
            "runtime.batch.occupancy");
    deliver;
    eps =
      Array.mapi
        (fun sid rng ->
          { sid; rng; up = true; peers = Itbl.create 8; obufs = Bound.create ();
            spare = no_outbox; queues = Queues.create ();
            buffers = Buffers.create (); carry = no_relay })
        rngs;
    c =
      { timeouts = 0; retransmits = 0; probes = 0; backpressured = 0;
        reliable_msgs = 0; outbox_peak = 0 };
  }

let counters tr = tr.c
let note_timeout tr = tr.c.timeouts <- tr.c.timeouts + 1

(* ---------------- relayed acks ---------------- *)

(* The last hop of a routed get or put answers the walk's origin, so the
   ack a forwarder owes the origin for the frame it forwards need not
   leave alone: it rides the forwarded frame, and then the reply, home
   (RPC's rule: the result acknowledges the call). A relay is one
   immediate packing the acking snode, the snode it acks and the ack's
   cumulative floor; it is unreliable like any ack, and a lost one costs
   the origin one retransmission, which the forwarder acks directly. *)
let pack_relay tr ~acker ~target ~floor =
  let n = Array.length tr.eps in
  (((floor * n) + acker) * n) + target

let relay_target tr r = r mod Array.length tr.eps

(* The origin of a routed get or put, which its executor answers; -1 for
   any other message. *)
let rec walk_origin = function
  | Wire.Routed { origin; op = Wire.Op_get _ | Wire.Op_put _; _ } -> origin
  | Wire.Traced { payload; _ } -> walk_origin payload
  | _ -> -1

(* [p]'s queue record, for a write: its own, else a pooled one, else a
   new one. Taken with nothing in flight, so the next seq to be drawn
   bounds the outbox from below. *)
let queues_of ep p =
  if p.q != no_queues then p.q
  else begin
    let q = Queues.take ep.queues in
    let q =
      if q != no_queues then q
      else Queues.fresh ep.queues { no_queues with q_next = no_queues }
    in
    q.oldest <- p.next_seq;
    p.q <- q;
    q
  end

let outbox_add ep q seq entry =
  if q.outbox == no_outbox then
    if ep.spare != no_outbox then begin
      q.outbox <- ep.spare;
      ep.spare <- no_outbox
    end
    else q.outbox <- Itbl.create table_size;
  Itbl.add q.outbox seq entry;
  if Itbl.length q.outbox > grow_threshold then q.grown <- true

let seen_add q seq =
  if q.seen == no_seen then q.seen <- Itbl.create table_size;
  Itbl.replace q.seen seq ()

let backlog_add q seq =
  if q.backlog == no_backlog then q.backlog <- Queue.create ();
  Queue.add seq q.backlog

(* Whether a drain left a queue empty but still allocated. [seen] is only
   probed, never iterated, so it may always go; the backlog is a FIFO; the
   outbox only if it never grew. The cumulative retire in [on_ack] folds
   the outbox in bucket order, and under an adaptive RTO that order feeds
   the RTT estimator, so an emptied grown table keeps its wider layout
   rather than give way to a fresh one. *)
let stale_seen q = Itbl.length q.seen = 0 && q.seen != no_seen
let stale_backlog q = Queue.is_empty q.backlog && q.backlog != no_backlog

let stale_outbox q =
  Itbl.length q.outbox = 0 && q.outbox != no_outbox && not q.grown

let release_seen q = if stale_seen q then q.seen <- no_seen
let release_backlog q = if stale_backlog q then q.backlog <- no_backlog
(* A drained outbox that never grew is indistinguishable from a fresh one,
   so it becomes the endpoint's spare if that slot is free. *)
let release_outbox ep q =
  if stale_outbox q then begin
    if ep.spare == no_outbox then ep.spare <- q.outbox;
    q.outbox <- no_outbox
  end

(* Give [p]'s record back to the pool once it has gone [idle]. *)
let settle ep p =
  let q = p.q in
  if q != no_queues && idle q then begin
    p.q <- no_queues;
    Queues.give ep.queues q
  end

let peer_of ep pid =
  match Itbl.find ep.peers pid with
  | p -> p
  | exception Not_found ->
      let p = { next_seq = 0; floor = -1; rtt = no_rtt; q = no_queues } in
      Itbl.add ep.peers pid p;
      p

(* The outbox entries that pass [keep], in seq (= issue) order. *)
let in_seq_order q keep =
  Itbl.fold (fun seq e acc -> if keep e then (seq, e) :: acc else acc) q.outbox []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* One Jacobson estimator update (RFC 6298 gains). The first sample seeds
   the estimator; Karn's rule (the caller samples only never-retransmitted
   messages) keeps retransmission ambiguity out of it. *)
let rtt_sample p s =
  if p.rtt == no_rtt then p.rtt <- { srtt = s; rttvar = s /. 2. }
  else begin
    let r = p.rtt in
    if r.srtt <= 0. then begin
      r.srtt <- s;
      r.rttvar <- s /. 2.
    end
    else begin
      r.rttvar <- (0.75 *. r.rttvar) +. (0.25 *. Float.abs (r.srtt -. s));
      r.srtt <- (0.875 *. r.srtt) +. (0.125 *. s)
    end
  end

(* Deadline-aware admission: the time to assemble a quorum of [need] acks
   over [set] is estimated as the [need]-th smallest per-route completion
   estimate — a route's smoothed round trip (the configured [rto] before
   any sample exists) scaled by its queue pressure and graded suspicion
   level. The local replica is free. Deliberately cheap and pessimistic:
   it reads only sender-side state the coordinator already has. *)
let admission_estimate tr ~src ~set ~need =
  let route_est sid =
    if sid = src then 0.
    else
      match Itbl.find_opt tr.eps.(src).peers sid with
      | None -> tr.rto
      | Some p ->
          let r = p.rtt in
          let rtt =
            if r.srtt > 0. then r.srtt +. (4. *. r.rttvar) else tr.rto
          in
          let pressure = float_of_int (Itbl.length p.q.outbox + 1) in
          rtt *. pressure *. float_of_int (1 + p.q.strikes)
  in
  let ests = List.sort compare (List.map route_est set) in
  Option.value ~default:infinity (List.nth_opt ests (max 0 (need - 1)))

(* What [msgs] would cost sent one by one, added to [acc]: as themselves,
   or each in its own [Req] frame. Batch accounting walks the parts it
   has instead of building a list of what they would have been. *)
let rec bytes_alone acc = function
  | [] -> acc
  | m :: rest -> bytes_alone (acc + Wire.size_bytes m) rest

let rec reqs_alone acc = function
  | [] -> acc
  | m :: rest -> reqs_alone (acc + Wire.per_entry + Wire.size_bytes m) rest

(* Without a fault plan the network is reliable and messages flow exactly
   as in the original runtime (same messages, same bytes, same timings).
   With one, every remote message goes through the reliable request layer:
   wrapped in [Req { seq }], deduplicated by [(sender, seq)] at the
   receiver, acknowledged, and retransmitted with exponential backoff and
   jitter until acknowledged. Routes that keep timing out are poisoned
   (probed at the capped cadence only) until the peer answers again.

   A positive linger window inserts the transmission-batching layer in
   front of both paths: outgoing messages stage in a per-destination
   coalescing buffer for at most one window and leave as a single
   [Wire.Batch] envelope. Under faults the batch's protocol messages share
   one [Req] frame — one sequence number, one retransmission timer, one
   ack — while acks ride piggyback outside the frame (acknowledging an ack
   would never converge). *)
let rec send tr ~src ~dst msg =
  (* Loopback pays no queueing layer: the edge transmits as it is sent. *)
  if src = dst then transmit_raw tr ~src ~dst msg
  else if tr.reliable && tr.linger = 0. then
    reliable_send tr tr.eps.(src) ~dst ~acks:[] ~relay:no_relay msg
  else if tr.reliable then begin
    (* Only a staging sender holds acks back, so only it relays them. *)
    let ep = tr.eps.(src) in
    let ob = buffer tr ep ~dst in
    if ob.ob_relay = no_relay then ob.ob_relay <- relay_for tr ep ~dst msg;
    stage tr ep ob msg
  end
  else post tr tr.eps.(src) ~dst msg

(* The unframed path: staged for the next envelope when batching is on,
   else straight onto the wire. *)
and post tr ep ~dst msg =
  if tr.linger > 0. then stage tr ep (buffer tr ep ~dst) msg
  else transmit_raw tr ~src:ep.sid ~dst msg

(* The relay the frame toward [dst] that carries [msg] takes, or
   [no_relay]. A relay the current delivery carries goes on with the
   first send toward the snode it acks or of that snode's walk. Else a
   walk forwarded for an origin other than [dst] takes the ack staged
   toward the origin, if that ack is all the buffer holds and no gap is
   pending below it (its floor covers its seq, so the floor alone says
   what it retires). *)
and relay_for tr ep ~dst msg =
  let origin = walk_origin msg in
  if
    ep.carry <> no_relay
    && (let target = relay_target tr ep.carry in
        dst = target || origin = target)
  then begin
    let r = ep.carry in
    ep.carry <- no_relay;
    r
  end
  else if origin >= 0 && origin <> dst && origin <> ep.sid then
    let ob = Bound.find ep.obufs origin in
    match ob.ob_parts with
    | [ Wire.Ack { seq; floor } ] when floor >= seq ->
        (* The emptied buffer's armed flush finds nothing to send and
           gives the buffer back. *)
        ob.ob_parts <- [];
        ob.ob_acked <- false;
        pack_relay tr ~acker:ep.sid ~target:origin ~floor
    | _ -> no_relay
  else no_relay

(* One unframed transmission of [msg]. *)
and transmit_raw tr ~src ~dst msg =
  wire tr ~src ~dst ~attempt:1 ~bytes:(Wire.size_bytes msg) msg

(* [msg] onto the simulated network, delivered to [dst]'s [receive], its
   traced edges logged as sent for the [attempt]-th time: the transport's
   one network send. *)
and wire tr ~src ~dst ~attempt ~bytes msg =
  (match tr.xmit with Some f -> f ~tid:src ~attempt msg | None -> ());
  Network.send tr.net ~tag:(Wire.describe msg) ~src ~dst ~bytes (fun () ->
      receive tr tr.eps.(dst) ~from:src msg)

(* ---------------- transmission batching ---------------- *)

(* Stage [msg] in the coalescing buffer toward [dst]. The first part arms
   the flush timer: one linger window out while [dst] owes us an ack, else
   (Nagle's rule) at the current instant, after the event staging it, so
   whatever that event stages toward [dst] (an ack and the reply its
   delivery provoked, say) still leaves as one envelope. Without a fault
   plan nothing is ever acknowledged, so every first part waits the
   window. A new cumulative ack supersedes any staged ack it covers, so an
   envelope never carries redundant acks. *)
and stage tr ep ob msg =
  (match msg with
  | Wire.Ack { floor; _ } ->
      if ob.ob_acked then
        ob.ob_parts <-
          List.filter
            (function Wire.Ack { seq; _ } -> seq > floor | _ -> true)
            ob.ob_parts;
      ob.ob_acked <- true
  | _ -> ());
  ob.ob_parts <- msg :: ob.ob_parts;
  if not ob.ob_armed then arm_flush tr ob ~delay:(hold tr ep ob.ob_dst)

(* The buffer toward [dst], taken from the pool while it has none. *)
and buffer tr ep ~dst =
  let ob = Bound.find ep.obufs dst in
  if ob != no_obuf then ob
  else begin
    let ob = take_obuf tr ep ~dst in
    Bound.bind ep.obufs dst ob;
    ob
  end

(* How long a buffer toward [dst] holds its first part: the linger window
   while [dst] owes [ep] an ack or there is no fault plan, else nothing
   (Nagle's rule). *)
and hold tr ep dst =
  if tr.reliable && owes_nothing ep dst then 0. else tr.linger

(* Nothing of [ep]'s is unacknowledged toward [dst]: no frame sits in its
   window, or no peer record exists yet. *)
and owes_nothing ep dst =
  match Itbl.find ep.peers dst with
  | p -> p.q.live = 0
  | exception Not_found -> true

(* Arm [ob]'s flush [delay] from now, superseding any earlier arming. The
   latest arming's queue entry always acts; the deadline only tells an
   older arming still queued whether it is due with the latest one, so it
   is written only then. *)
and arm_flush tr ob ~delay =
  if ob.ob_queued > 0 then ob.ob_due.at <- Engine.now tr.engine +. delay;
  ob.ob_armed <- true;
  ob.ob_queued <- ob.ob_queued + 1;
  Engine.schedule tr.engine ~delay ob.ob_fire

(* A disarmed buffer for [dst]: a pooled one, or a new one. *)
and take_obuf tr ep ~dst =
  let ob = Buffers.take ep.buffers in
  if ob != no_obuf then begin
    ob.ob_dst <- dst;
    ob
  end
  else begin
    let ob =
      { ob_dst = dst; ob_parts = []; ob_acked = false; ob_relay = no_relay;
        ob_armed = false; ob_queued = 0; ob_due = { at = 0. };
        ob_fire = ignore; ob_next = no_obuf }
    in
    (* With no other arming queued this is the latest one; an older one
       acts only when it is due at the latest deadline's instant. The last
       queued arming of a disarmed, emptied buffer (a forced or crash-cut
       flush left it) gives the buffer back. *)
    ob.ob_fire <-
      (fun () ->
        ob.ob_queued <- ob.ob_queued - 1;
        if
          ob.ob_armed
          && (ob.ob_queued = 0 || Engine.now tr.engine >= ob.ob_due.at)
        then begin
          ob.ob_armed <- false;
          on_flush_timer tr ep ob
        end
        else if
          ob.ob_queued = 0 && (not ob.ob_armed) && ob.ob_parts = []
          && ob.ob_dst >= 0
        then release ep ob);
    Buffers.fresh ep.buffers ob
  end

(* The timer's flush; a buffer it leaves empty goes back to the pool and
   its destination's binding goes with it. An older arming may still be
   queued (a forced or crash-cut flush left it, and a zero-delay arming
   overtook it). It can act for the next destination to take the buffer
   only at the instant that destination's latest arming is due, so it
   never flushes that destination's parts before their own timer would. *)
and on_flush_timer tr ep ob =
  flush_obuf tr ep ob;
  match ob.ob_parts with [] -> release ep ob | _ :: _ -> ()

(* Unbind an empty buffer and give it back to the pool. *)
and release ep ob =
  Bound.unbind ep.obufs ob.ob_dst;
  ob.ob_dst <- -1;
  Buffers.give ep.buffers ob

(* Everything staged toward one destination leaves as one envelope: raw on
   a reliable network; under faults the protocol parts share one [Req]
   frame and the piggybacked acks travel outside it, unreliably (a lost
   ack just provokes one more retransmission). If the flush timer somehow
   fires on a crashed snode the parts stay staged — restart re-arms. *)
and flush_obuf tr ep ob =
  if ep.up then
    match ob.ob_parts with
    | [] -> ()
    | staged -> (
        ob.ob_parts <- [];
        ob.ob_acked <- false;
        let relay = ob.ob_relay in
        ob.ob_relay <- no_relay;
        let dst = ob.ob_dst in
        if not tr.reliable then send_coalesced tr ep ~dst (List.rev staged)
        else
          (* One pass over the newest-first list: consing each part onto
             its side leaves both sides oldest first. *)
          let rec split acks protos = function
            | [] -> (acks, protos)
            | (Wire.Ack _ as m) :: rest -> split (m :: acks) protos rest
            | m :: rest -> split acks (m :: protos) rest
          in
          match split [] [] staged with
          | acks, [] -> send_coalesced tr ep ~dst acks
          | acks, [ payload ] -> reliable_send tr ep ~dst ~acks ~relay payload
          | acks, protos ->
              reliable_send tr ep ~dst ~acks ~relay (Wire.Batch protos))

(* Send [parts] toward [dst] without reliability framing: a lone message
   goes as itself, several coalesce into one [Wire.Batch]. *)
and send_coalesced tr ep ~dst parts =
  match parts with
  | [] -> ()
  | [ msg ] -> transmit_raw tr ~src:ep.sid ~dst msg
  | parts ->
      emit_batch tr ep ~dst ~attempt:1 ~parts:(List.length parts)
        ~alone:(bytes_alone 0 parts) (Wire.Batch parts)

(* One coalesced envelope of [parts] parts onto the wire, with batching
   telemetry: [alone] is what those parts would have cost sent one by
   one. *)
and emit_batch tr ep ~dst ~attempt ~parts ~alone msg =
  let bytes = Wire.size_bytes msg in
  wire tr ~src:ep.sid ~dst ~attempt ~bytes msg;
  Network.account_batch tr.net ~parts ~saved:(max 0 (alone - bytes));
  match tr.i_batch with
  | Some h -> Histogram.observe h (float_of_int parts)
  | None -> ()

(* ---------------- reliable delivery ---------------- *)

and reliable_send tr ep ~dst ~acks ~relay msg =
  let p = peer_of ep dst in
  let q = queues_of ep p in
  let seq = p.next_seq in
  p.next_seq <- seq + 1;
  tr.c.reliable_msgs <- tr.c.reliable_msgs + 1;
  let entry =
    { o_frame = Wire.Req { seq; relay; payload = msg }; o_attempts = 0;
      o_at = { sent = 0.; due = 0. }; o_live = false; o_armed = false;
      o_slot = -1; o_fire = ignore }
  in
  entry.o_fire <-
    (fun () ->
      if entry.o_armed && Engine.now tr.engine >= entry.o_at.due then begin
        entry.o_armed <- false;
        on_rto tr ep ~dst ~seq entry
      end);
  outbox_add ep q seq entry;
  let depth = Itbl.length q.outbox in
  if depth > tr.c.outbox_peak then tr.c.outbox_peak <- depth;
  if tr.max_inflight > 0 && q.live >= tr.max_inflight then begin
    (* Window full: backpressure. The entry stays durably in the outbox
       but pays no transmission and arms no timer until an ack retires a
       window entry and promotes it. Piggybacked acks are unreliable and
       must not wait — let them go now. *)
    tr.c.backpressured <- tr.c.backpressured + 1;
    backlog_add q seq;
    send_coalesced tr ep ~dst acks
  end
  else enter_window tr ep p ~dst ~acks ~seq entry

(* [entry] takes a slot in [p]'s window and goes out with [acks]. On a
   poisoned route it does not pay the immediate transmission but probes
   at the capped cadence (the acks go alone); an ack (or any traffic from
   the peer) flushes the whole outbox at once. *)
and enter_window tr ep p ~dst ~acks ~seq entry =
  let q = p.q in
  entry.o_live <- true;
  q.live <- q.live + 1;
  if q.suspect then begin
    send_coalesced tr ep ~dst acks;
    arm_retransmit tr entry ~delay:rto_cap
  end
  else transmit tr ep p ~dst ~acks ~probe:false ~seq entry

and transmit tr ep p ~dst ~acks ~probe ~seq entry =
  entry.o_attempts <- entry.o_attempts + 1;
  entry.o_at.sent <- Engine.now tr.engine;
  if entry.o_attempts > 1 then begin
    if probe then tr.c.probes <- tr.c.probes + 1
    else tr.c.retransmits <- tr.c.retransmits + 1;
    if Trace.enabled tr.trace then
      Trace.instant tr.trace ~ts:(Engine.now tr.engine) ~tid:ep.sid
        ~name:(if probe then "retry.probe" else "retransmit")
        [
          ("dst", Trace.Int dst);
          ("seq", Trace.Int seq);
          ("attempt", Trace.Int entry.o_attempts);
        ]
  end;
  let frame = entry.o_frame in
  let payload, relayed =
    match frame with
    | Wire.Req { payload; relay; _ } -> (payload, relay <> no_relay)
    | m -> (m, false)
  in
  let single =
    match payload with
    | Wire.Batch [ _ ] -> true
    | Wire.Batch _ -> false
    | _ -> true
  in
  (match acks with
  | [] when single ->
      wire tr ~src:ep.sid ~dst ~attempt:entry.o_attempts
        ~bytes:(Wire.size_bytes frame) frame
  | _ ->
      (* Unbatched, each protocol part would have paid its own [Req] frame
         and each ack its own envelope. *)
      let protos =
        match payload with Wire.Batch l -> List.length l | _ -> 1
      in
      let framed =
        match payload with
        | Wire.Batch l -> reqs_alone (if relayed then Wire.per_entry else 0) l
        | _ -> Wire.size_bytes frame
      in
      emit_batch tr ep ~dst ~attempt:entry.o_attempts
        ~parts:(List.length acks + protos)
        ~alone:(bytes_alone framed acks)
        (match acks with [] -> frame | _ -> Wire.Batch (acks @ [ frame ])));
  arm_retransmit tr entry ~delay:(rto_for tr ep p entry.o_attempts)

and rto_for tr ep p attempts =
  (* Exponential backoff with multiplicative jitter, capped. The adaptive
     path replaces the fixed [rto] base with the route's Jacobson estimate
     (SRTT + 4·RTTVAR, floored at [rto]) once a sample exists, so a route
     whose true round trip exceeds the configured ladder stops provoking
     spurious retransmissions. Exactly one RNG draw either way, keeping
     faulty schedules bit-identical when the feature is off. *)
  let exp = float_of_int (min (attempts - 1) 16) in
  let rto0 =
    if not tr.adaptive_rto then tr.rto
    else if p.rtt.srtt > 0. then
      Float.max tr.rto (p.rtt.srtt +. (4. *. p.rtt.rttvar))
    else tr.rto
  in
  let base = Float.min (rto0 *. (2. ** exp)) rto_cap in
  base *. (1. +. (0.5 *. Rng.float ep.rng))

(* Arm [entry]'s retransmission [delay] from now, pushing the closure
   made with the entry: no fresh closure per attempt. A superseded queue
   entry fires as a no-op: the entry is disarmed, or the clock has not
   reached the latest deadline. *)
and arm_retransmit tr entry ~delay =
  (match tr.i_rto with Some h -> Histogram.observe h delay | None -> ());
  let time = Engine.now tr.engine +. delay in
  entry.o_at.due <- time;
  entry.o_armed <- true;
  entry.o_slot <- Engine.push tr.engine ~time entry.o_fire

and on_rto tr ep ~dst ~seq entry =
  (* Timer fired with the message still unacknowledged. A crashed sender's
     timers are cancelled; restart re-arms them from the (durable) outbox,
     so the up check is belt-and-braces. The peer record is looked up here,
     where a timeout is rare, rather than kept in every entry's closure. *)
  let p = Itbl.find ep.peers dst in
  let q = p.q in
  if ep.up && Itbl.mem q.outbox seq then begin
    tr.c.timeouts <- tr.c.timeouts + 1;
    q.strikes <- q.strikes + 1;
    if (not q.suspect) && q.strikes >= poison_after then begin
      q.suspect <- true;
      if Trace.enabled tr.trace then
        Trace.instant tr.trace ~ts:(Engine.now tr.engine) ~tid:ep.sid
          ~name:"route.poisoned"
          [ ("dst", Trace.Int dst); ("strikes", Trace.Int q.strikes) ];
      Log.debug (fun m ->
          m "snode %d: route to snode %d poisoned after %d timeouts" ep.sid
            dst q.strikes)
    end;
    (* Retry budget: past it, further retransmissions become rate-limited
       probes — still sent (a silently-restarted peer must eventually hear
       the message) but at the capped cadence only and counted apart, so
       a retry storm's amplification stays bounded by construction. *)
    let probe = tr.retry_budget > 0 && entry.o_attempts > tr.retry_budget in
    transmit tr ep p ~dst ~acks:[] ~probe ~seq entry
  end

(* An ack to an idle peer (its record shared, its outbox empty) is a
   duplicate with nothing to retire. *)
and on_ack tr ep ~from ~seq ~floor ~sample =
  let p = peer_of ep from in
  let q = p.q in
  if q != no_queues then begin
    let answered = retire tr p q seq ~sample in
    (* Cumulative: the peer has processed every seq up to [floor], so also
       retire older entries whose own ack was lost — walking the table
       only when one may be outstanding. *)
    while q.oldest < p.next_seq && not (Itbl.mem q.outbox q.oldest) do
      q.oldest <- q.oldest + 1
    done;
    let answered =
      if q.oldest > floor then answered
      else
        Itbl.fold (fun s _ acc -> if s <= floor then s :: acc else acc)
          q.outbox []
        |> List.fold_left
             (fun answered s -> retire tr p q s ~sample || answered)
             answered
    in
    release_outbox ep q;
    if answered then begin
      peer_answered tr ep p ~pid:from;
      refill_window tr ep p ~pid:from
    end;
    settle ep p
  end

(* Retire outbox entry [s] on its ack; [false] for a duplicate ack. The
   entry is disarmed, its latest queue entry cleared and its payload
   dropped: no queue entry, superseded ones included, pins the message
   until its deadline. A relayed ack took extra legs, so it does not
   [sample] the round trip. *)
and retire tr p q s ~sample =
  match Itbl.find q.outbox s with
  | exception Not_found -> false
  | entry ->
      Itbl.remove q.outbox s;
      entry.o_armed <- false;
      entry.o_frame <- no_payload;
      if entry.o_slot >= 0 then Engine.clear tr.engine entry.o_slot entry.o_fire;
      if entry.o_live then begin
        entry.o_live <- false;
        q.live <- q.live - 1
      end;
      (* Karn's rule: only a never-retransmitted message yields an
         unambiguous RTT sample. *)
      if sample && tr.adaptive_rto && entry.o_attempts = 1 then
        rtt_sample p (Engine.now tr.engine -. entry.o_at.sent);
      true

(* Acks freed window slots: promote backlogged messages in issue order.
   Entries retired while waiting (a cumulative ack can cover them) are
   skipped. An unbounded window ([max_inflight = 0]) never fills, so only
   a restart puts entries in its backlog. *)
and refill_window tr ep p ~pid =
  let q = p.q in
  while
    (tr.max_inflight = 0 || q.live < tr.max_inflight)
    && not (Queue.is_empty q.backlog)
  do
    let seq = Queue.pop q.backlog in
    match Itbl.find_opt q.outbox seq with
    | None -> ()
    | Some entry -> enter_window tr ep p ~dst:pid ~acks:[] ~seq entry
  done;
  release_backlog q

(* Any message from a peer proves it alive: clear the strikes and, if the
   route was poisoned, retry everything still inside the window for it
   immediately (backlogged entries keep waiting for a slot). An idle peer
   has neither to clear. *)
and peer_answered tr ep p ~pid =
  let q = p.q in
  if q != no_queues then begin
    q.strikes <- 0;
    if q.suspect then begin
      q.suspect <- false;
      Log.debug (fun m ->
          m "snode %d: snode %d answered; flushing %d queued messages" ep.sid
            pid (Itbl.length q.outbox));
      in_seq_order q (fun e -> e.o_live)
      |> List.iter (fun (seq, e) ->
             e.o_armed <- false;
             transmit tr ep p ~dst:pid ~acks:[] ~probe:false ~seq e)
    end
  end

(* Every network delivery lands here: a down endpoint absorbs every remote
   delivery (the sender keeps retransmitting), link-layer frames are
   unwrapped and deduplicated, protocol messages go up to [deliver]. A
   loopback has no sender-side copy to retransmit, so it goes up to
   [deliver] even at a down endpoint. *)
and receive tr ep ~from msg =
  if (not ep.up) && from = ep.sid then tr.deliver ~dst:ep.sid ~from msg
  else if ep.up then
    match msg with
    | Wire.Batch parts ->
        (* Coalesced envelope: parts are processed in issue order, so
           per-(src, dst) FIFO is preserved through batching. *)
        List.iter (fun part -> receive tr ep ~from part) parts
    | Wire.Ack { seq; floor } -> on_ack tr ep ~from ~seq ~floor ~sample:true
    | Wire.Req { seq; relay; payload } ->
        let p = peer_of ep from in
        let fresh =
          if seq = p.floor + 1 && Itbl.length p.q.seen = 0 then begin
            (* In order with no gap pending: the floor just moves up. *)
            p.floor <- seq;
            true
          end
          else if seq > p.floor && not (Itbl.mem p.q.seen seq) then begin
            let q = queues_of ep p in
            seen_add q seq;
            while Itbl.mem q.seen (p.floor + 1) do
              Itbl.remove q.seen (p.floor + 1);
              p.floor <- p.floor + 1
            done;
            release_seen q;
            true
          end
          else false
        in
        (* Always (re-)acknowledge — the previous ack may have been lost —
           and cumulatively, with the floor advanced by this very frame.
           With a linger window the ack stages toward the peer and rides
           the next envelope out, usually alongside the replies the
           payload provokes just below. *)
        post tr ep ~dst:from (Wire.Ack { seq; floor = p.floor });
        peer_answered tr ep p ~pid:from;
        settle ep p;
        if relay <> no_relay then land_relay tr ep ~fresh relay;
        if fresh then begin
          (match payload with
          | Wire.Batch parts ->
              List.iter (fun part -> tr.deliver ~dst:ep.sid ~from part) parts
          | payload -> tr.deliver ~dst:ep.sid ~from payload);
          (* A relay no send took on is lost, as an ack may be. *)
          ep.carry <- no_relay
        end
    | msg -> tr.deliver ~dst:ep.sid ~from msg

(* A relay that reaches the snode it acks retires what its floor covers;
   elsewhere a fresh frame's relay is carried through the frame's
   delivery, for [relay_for] to pass on. *)
and land_relay tr ep ~fresh r =
  let n = Array.length tr.eps in
  if r mod n = ep.sid then
    let floor = r / n / n in
    on_ack tr ep ~from:(r / n mod n) ~seq:floor ~floor ~sample:false
  else if fresh then ep.carry <- r

(* ------------------------------------------------------------------ *)
(* Crash and recovery                                                   *)

(* Crash-stop: the outbox, dedup window and staged parts are durable;
   retransmission and flush timers, route suspicions and RTT estimates
   die with the snode. *)
let crash tr sid =
  let ep = tr.eps.(sid) in
  ep.up <- false;
  Itbl.iter
    (fun _ p ->
      (* RTT estimates are soft state, like suspicions. *)
      p.rtt <- no_rtt;
      let q = p.q in
      if q != no_queues then begin
        q.suspect <- false;
        q.strikes <- 0;
        Itbl.iter
          (fun _ e ->
            e.o_armed <- false;
            e.o_attempts <- 0)
          q.outbox;
        settle ep p
      end)
    ep.peers;
  Bound.iter (fun _ ob -> ob.ob_armed <- false) ep.obufs

let restart tr sid =
  let ep = tr.eps.(sid) in
  ep.up <- true;
  (* Re-send everything still unacknowledged. The whole outbox re-enters
     through the backlog, so the restart burst respects the window too. *)
  Itbl.iter
    (fun pid p ->
      let q = p.q in
      if q != no_queues then begin
        q.backlog <- no_backlog;
        q.live <- 0;
        in_seq_order q (fun _ -> true)
        |> List.iter (fun (seq, e) ->
               e.o_live <- false;
               backlog_add q seq);
        refill_window tr ep p ~pid;
        settle ep p
      end)
    ep.peers;
  (* Flush timers died with the crash; anything still staged is re-armed
     by the hold rule [stage] uses, in destination order. *)
  List.iter
    (fun (dst, ob) ->
      if ob.ob_parts <> [] then arm_flush tr ob ~delay:(hold tr ep dst))
    (Bound.sorted ep.obufs)

(* ------------------------------------------------------------------ *)
(* Flush control and inspection                                         *)

(* Force every up endpoint's coalescing buffers onto the wire now, in
   (snode, destination) order — deterministic, so a schedule explorer can
   inject flush points without perturbing the numbering of later decision
   sites between runs. *)
let flush_lingering tr =
  Array.iter
    (fun ep ->
      if ep.up then
        List.iter
          (fun (_, ob) ->
            ob.ob_armed <- false;
            flush_obuf tr ep ob)
          (Bound.sorted ep.obufs))
    tr.eps

(* Outbox plus backlog lengths over all peers; a backlogged message is
   still in the outbox, so it weighs twice. *)
let queue_depth tr sid =
  Itbl.fold
    (fun _ p acc -> acc + Itbl.length p.q.outbox + Queue.length p.q.backlog)
    tr.eps.(sid).peers 0

(* Bounded-queue audit: the structural invariants of the degradation layer,
   and the footprint rule that a drained queue is released. Cheap enough to
   run at every explorer step. *)
let audit tr =
  let issues = ref [] in
  let fail fmt = Format.kasprintf (fun s -> issues := s :: !issues) fmt in
  List.iter
    (fun (name, intact) ->
      if not intact then fail "the shared sentinel %s was written" name)
    (sentinels ());
  (* Every record a pool made is free or bound. *)
  let pool ep what ~free ~bound ~made =
    if free + bound <> made then
      fail "snode %d: %d %s made, %d free and %d bound" ep.sid made what free
        bound
  in
  Array.iter
    (fun ep ->
      if ep.carry <> no_relay then
        fail "snode %d: a relay carried outside a delivery" ep.sid;
      if Itbl.length ep.spare > 0 then
        fail "snode %d: spare outbox holds %d entries" ep.sid
          (Itbl.length ep.spare);
      let bound =
        Itbl.fold
          (fun pid p n ->
            let q = p.q in
            let unreleased what =
              fail "snode %d -> %d: drained %s not released" ep.sid pid what
            in
            if stale_seen q then unreleased "dedup window";
            if stale_backlog q then unreleased "backlog";
            if stale_outbox q then unreleased "outbox";
            if q != no_queues && idle q then
              fail "snode %d -> %d: idle peer holds a queue record" ep.sid pid;
            let live =
              Itbl.fold
                (fun _ e acc -> if e.o_live then acc + 1 else acc)
                q.outbox 0
            in
            if live <> q.live then
              fail
                "snode %d -> %d: window accounting drift (%d counted, %d live)"
                ep.sid pid q.live live;
            if tr.max_inflight > 0 && q.live > tr.max_inflight then
              fail "snode %d -> %d: %d in flight exceeds the window of %d"
                ep.sid pid q.live tr.max_inflight;
            if q == no_queues then n else n + 1)
          ep.peers 0
      in
      let free =
        Queues.walk ep.queues (fun q ->
            if not (blank q) then
              fail "snode %d: free queue record in use" ep.sid)
      in
      pool ep "queue records" ~free ~bound ~made:ep.queues.made;
      (* Staged parts on an up endpoint always have an armed flush. *)
      let free =
        Buffers.walk ep.buffers (fun ob ->
            if ob.ob_dst >= 0 then
              fail "snode %d: free buffer still bound toward %d" ep.sid
                ob.ob_dst;
            if ob.ob_parts <> [] then
              fail "snode %d: free buffer holds staged parts" ep.sid;
            if ob.ob_relay <> no_relay then
              fail "snode %d: free buffer holds a relay" ep.sid;
            if ob.ob_armed then fail "snode %d: free flush timer armed" ep.sid)
      in
      (* A destination is bound only while it holds a buffer: one made
         by the pool, not free, bound to it, and holding a part or
         awaiting the timer arming that will flush or give it back. *)
      let bound = ref 0 in
      Bound.iter
        (fun dst ob ->
          if ob == no_obuf then
            fail "snode %d -> %d: bound to the shared empty buffer" ep.sid dst
          else begin
            incr bound;
            if ob.ob_dst < 0 then
              fail "snode %d -> %d: bound to a free buffer" ep.sid dst
            else if ob.ob_dst <> dst then
              fail "snode %d -> %d: buffer belongs to another destination"
                ep.sid dst;
            if ob.ob_parts = [] && ob.ob_queued = 0 then
              fail "snode %d -> %d: bound buffer holds no part" ep.sid dst;
            if ep.up && ob.ob_parts <> [] && not ob.ob_armed then
              fail "snode %d -> %d: staged parts without an armed flush timer"
                ep.sid dst;
            if ob.ob_relay <> no_relay && ob.ob_parts = [] then
              fail "snode %d -> %d: a relay with no frame to ride" ep.sid dst
          end)
        ep.obufs;
      let bound = !bound in
      pool ep "buffers" ~free ~bound ~made:ep.buffers.made)
    tr.eps;
  List.rev !issues

type pool_fault =
  | Leak
  | Share
  | Arm_free
  | Disarm_staged
  | Leak_queues
  | Write_sentinel
  | Relay_free
  | Relay_sentinel
  | Bind_free
  | Keep_empty

let plant_pool_fault tr sid fault =
  let ep = tr.eps.(sid) in
  let bound = Bound.sorted ep.obufs in
  let find what keep =
    match List.find_opt keep bound with
    | Some b -> b
    | None -> invalid_arg ("Transport.plant_pool_fault: no " ^ what)
  in
  match fault with
  | Leak ->
      let dst, _ = find "bound buffer" (fun _ -> true) in
      Bound.unbind ep.obufs dst
  | Share ->
      let _, ob = find "bound buffer" (fun _ -> true) in
      let dst, _ = find "second buffer" (fun (_, o) -> o != ob) in
      Bound.bind ep.obufs dst ob
  | Bind_free | Keep_empty ->
      let dst = (sid + 1) mod Array.length tr.eps in
      if Bound.find ep.obufs dst != no_obuf || ep.buffers.free == no_obuf then
        invalid_arg
          "Transport.plant_pool_fault: the next snode holds a buffer, or none \
           is free";
      if fault = Bind_free then Bound.bind ep.obufs dst ep.buffers.free
      else begin
        (* Taken and bound like a staging buffer, but with nothing staged
           and no flush armed: what a timer flush that kept the binding
           would leave. *)
        let ob = Buffers.take ep.buffers in
        ob.ob_dst <- dst;
        Bound.bind ep.obufs dst ob
      end
  | Arm_free | Relay_free ->
      let ob = ep.buffers.free in
      if ob == no_obuf then
        invalid_arg "Transport.plant_pool_fault: no free buffer";
      if fault = Arm_free then ob.ob_armed <- true
      else ob.ob_relay <- pack_relay tr ~acker:sid ~target:sid ~floor:0
  | Disarm_staged ->
      let _, ob = find "staged buffer" (fun (_, ob) -> ob.ob_parts <> []) in
      ob.ob_armed <- false
  | Leak_queues -> (
      match Itbl.fold (fun _ p acc -> if p.q != no_queues then Some p else acc)
              ep.peers None with
      | Some p -> p.q <- no_queues
      | None -> invalid_arg "Transport.plant_pool_fault: no bound queue record")
  | Write_sentinel ->
      (* Every transport shares the sentinel: planting again undoes it. *)
      no_rtt.srtt <- (if no_rtt.srtt = 0. then 1. else 0.)
  | Relay_sentinel ->
      (* Likewise for the shared empty buffer. *)
      no_obuf.ob_relay <-
        (if no_obuf.ob_relay = no_relay then 0 else no_relay)

type peer_sample = {
  ps_observer : int;
  ps_peer : int;
  ps_srtt : float;
  ps_rttvar : float;
  ps_strikes : int;
  ps_suspect : bool;
  ps_outbox : int;
  ps_backlog : int;
}

(* Every observer's link-estimator state toward every peer it has talked
   to, in deterministic (observer, peer) order — the health scorer's
   input, sampled live (mid-run snapshots see gray failures the end-of-run
   state has already forgotten). *)
let peer_samples tr =
  Array.to_list tr.eps
  |> List.concat_map (fun ep ->
         Itbl.fold (fun pid p acc -> (pid, p) :: acc) ep.peers []
         |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
         |> List.map (fun (pid, p) ->
                { ps_observer = ep.sid; ps_peer = pid; ps_srtt = p.rtt.srtt;
                  ps_rttvar = p.rtt.rttvar; ps_strikes = p.q.strikes;
                  ps_suspect = p.q.suspect; ps_outbox = Itbl.length p.q.outbox;
                  ps_backlog = Queue.length p.q.backlog }))
