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
   open with, so the three queues are allocated on first write and
   released when drained: an idle peer shares the empty sentinels below,
   which nothing ever inserts into, and costs only its record. *)
type outmsg = {
  o_payload : Wire.msg;
  mutable o_attempts : int;
  mutable o_sent : float;  (* virtual time of the last transmission *)
  mutable o_live : bool;
      (* inside the bounded transmission window (timer armed); [false]
         while parked in the peer's backlog waiting for a slot *)
  mutable o_timer : Engine.timer option;
      (* reusable slot, allocated at the first arming; every retransmission
         re-arms it instead of building a fresh closure + handle *)
}

(* A route's Jacobson estimator. All-float, so it is stored flat and an
   update writes unboxed numbers; a peer points at the shared [no_rtt]
   until its first sample. *)
type rtt = { mutable srtt : float; mutable rttvar : float }

type peer = {
  mutable next_seq : int;
  mutable outbox : outmsg Itbl.t;  (* seq -> unacked message *)
  mutable oldest : int;
      (* no seq below this is in [outbox]: a lower bound, advanced lazily
         by [on_ack] so a cumulative ack with nothing older outstanding
         retires without walking the table *)
  mutable grown : bool;  (* [outbox] has resized past its initial buckets *)
  mutable backlog : int Queue.t;
      (* seqs staged past the inflight window, promoted in order as acks
         retire window entries; entries stay in [outbox] (durable) *)
  mutable live : int;  (* outbox entries currently inside the window *)
  mutable floor : int;  (* every seq <= floor from this peer was processed *)
  mutable seen : unit Itbl.t;  (* processed seqs above the floor *)
  mutable suspect : bool;  (* route poisoned after repeated timeouts *)
  mutable strikes : int;
      (* consecutive retransmission timeouts — the route's graded suspicion
         level; poisoning at [poison_after] is just the top of the scale,
         and admission control reads the raw level below it *)
  mutable rtt : rtt;  (* smoothed RTT and its variance; 0 = no sample yet *)
}

(* Per-destination transmission-coalescing buffer: protocol messages (and
   piggybacked acks) addressed to one peer wait here for at most one
   linger window, then leave as a single envelope ([Wire.Batch]). Staged
   parts are modelled as durable, like the reliable outbox they feed; only
   the flush timer dies with a crash (restart re-arms it).

   A snode keeps a buffer toward every destination it ever staged for,
   but only a few hold parts at once, so flush timers are pooled per
   endpoint: a buffer takes a flusher when its first part stages and
   gives it back when its timer's flush leaves it empty. A flush forced
   by [flush_lingering], or cut short by a crash, keeps the flusher on its
   buffer, so a superseded queue entry of that timer can only ever fire
   for the buffer that armed it. *)
type obuf = {
  ob_dst : int;
  mutable ob_parts : Wire.msg list;  (* newest first *)
  mutable ob_acked : bool;  (* an ack may be among [ob_parts] *)
  mutable ob_fl : flusher;  (* [no_flusher] while none is attached *)
}

(* A pooled flush timer. Its callback flushes [fl_ob], the buffer it is
   attached to; while free it sits on its endpoint's free list, linked
   through [fl_next], so taking or returning one allocates nothing. *)
and flusher = {
  mutable fl_timer : Engine.timer;  (* set once, right after creation *)
  mutable fl_ob : obuf;  (* [no_obuf] while on the free list *)
  mutable fl_next : flusher;  (* next free flusher, or [no_flusher] *)
}

(* One snode's end of the transport. *)
type endpoint = {
  sid : int;
  rng : Rng.t;  (* the snode's stream: retransmission jitter draws here *)
  mutable up : bool;  (* a down endpoint absorbs every delivery *)
  peers : peer Itbl.t;
  obufs : obuf Itbl.t;
  mutable spare : outmsg Itbl.t;
      (* one drained, never-grown outbox kept for the next peer that needs
         one, or [no_outbox]; it equals a fresh table *)
  mutable idle : flusher;  (* free-list head, or [no_flusher] *)
  mutable flushers : int;  (* flushers ever made here: free plus attached *)
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

(* The flusher of no buffer and the buffer of no flusher: list and
   attachment ends. [idle_timer] belongs to an engine that never runs and
   is never armed; every real flusher replaces it as soon as it is made. *)
let idle_timer = Engine.timer (Engine.create ()) ignore

let rec no_flusher =
  { fl_timer = idle_timer; fl_ob = no_obuf; fl_next = no_flusher }

and no_obuf =
  { ob_dst = -1; ob_parts = []; ob_acked = false; ob_fl = no_flusher }

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
          { sid; rng; up = true; peers = Itbl.create 8; obufs = Itbl.create 8;
            spare = no_outbox; idle = no_flusher; flushers = 0 })
        rngs;
    c =
      { timeouts = 0; retransmits = 0; probes = 0; backpressured = 0;
        reliable_msgs = 0; outbox_peak = 0 };
  }

let counters tr = tr.c
let note_timeout tr = tr.c.timeouts <- tr.c.timeouts + 1

let outbox_add ep p seq entry =
  if p.outbox == no_outbox then
    if ep.spare != no_outbox then begin
      p.outbox <- ep.spare;
      ep.spare <- no_outbox
    end
    else p.outbox <- Itbl.create table_size;
  Itbl.add p.outbox seq entry;
  if Itbl.length p.outbox > grow_threshold then p.grown <- true

let seen_add p seq =
  if p.seen == no_seen then p.seen <- Itbl.create table_size;
  Itbl.replace p.seen seq ()

let backlog_add p seq =
  if p.backlog == no_backlog then p.backlog <- Queue.create ();
  Queue.add seq p.backlog

(* Whether a drain left a queue empty but still allocated. [seen] is only
   probed, never iterated, so it may always go; the backlog is a FIFO; the
   outbox only if it never grew. The cumulative retire in [on_ack] folds
   the outbox in bucket order, and under an adaptive RTO that order feeds
   the RTT estimator, so an emptied grown table keeps its wider layout
   rather than give way to a fresh one. *)
let stale_seen p = Itbl.length p.seen = 0 && p.seen != no_seen
let stale_backlog p = Queue.is_empty p.backlog && p.backlog != no_backlog

let stale_outbox p =
  Itbl.length p.outbox = 0 && p.outbox != no_outbox && not p.grown

let release_seen p = if stale_seen p then p.seen <- no_seen
let release_backlog p = if stale_backlog p then p.backlog <- no_backlog
(* A drained outbox that never grew is indistinguishable from a fresh one,
   so it becomes the endpoint's spare if that slot is free. *)
let release_outbox ep p =
  if stale_outbox p then begin
    if ep.spare == no_outbox then ep.spare <- p.outbox;
    p.outbox <- no_outbox
  end

let peer_of ep pid =
  match Itbl.find ep.peers pid with
  | p -> p
  | exception Not_found ->
      let p =
        { next_seq = 0; outbox = no_outbox; oldest = 0; grown = false;
          backlog = no_backlog; live = 0; floor = -1; seen = no_seen;
          suspect = false; strikes = 0; rtt = no_rtt }
      in
      Itbl.add ep.peers pid p;
      p

(* The outbox entries that pass [keep], in seq (= issue) order. *)
let in_seq_order p keep =
  Itbl.fold (fun seq e acc -> if keep e then (seq, e) :: acc else acc) p.outbox []
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
          let pressure = float_of_int (Itbl.length p.outbox + 1) in
          rtt *. pressure *. float_of_int (1 + p.strikes)
  in
  let ests = List.sort compare (List.map route_est set) in
  Option.value ~default:infinity (List.nth_opt ests (max 0 (need - 1)))

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
    reliable_send tr tr.eps.(src) ~dst ~acks:[] msg
  else post tr tr.eps.(src) ~dst msg

(* The unframed path: staged for the next envelope when batching is on,
   else straight onto the wire. *)
and post tr ep ~dst msg =
  if tr.linger > 0. then stage tr ep ~dst msg
  else transmit_raw tr ~src:ep.sid ~dst msg

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

(* Stage [msg] in the coalescing buffer toward [dst]; the first part arms
   the flush timer one linger window out. A new cumulative ack supersedes
   any staged ack it covers, so an envelope never carries redundant
   acks. *)
and stage tr ep ~dst msg =
  let ob =
    match Itbl.find ep.obufs dst with
    | ob -> ob
    | exception Not_found ->
        let ob =
          { ob_dst = dst; ob_parts = []; ob_acked = false; ob_fl = no_flusher }
        in
        Itbl.add ep.obufs dst ob;
        ob
  in
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
  if ob.ob_fl == no_flusher then attach_flusher tr ep ob;
  let tm = ob.ob_fl.fl_timer in
  if not (Engine.armed tm) then Engine.arm tm ~delay:tr.linger

(* Give [ob] a disarmed flusher: the free list's head, or a new one. *)
and attach_flusher tr ep ob =
  let fl =
    if ep.idle != no_flusher then begin
      let fl = ep.idle in
      ep.idle <- fl.fl_next;
      fl.fl_next <- no_flusher;
      fl
    end
    else begin
      let fl =
        { fl_timer = idle_timer; fl_ob = no_obuf; fl_next = no_flusher }
      in
      fl.fl_timer <- Engine.timer tr.engine (fun () -> on_flush_timer tr ep fl);
      ep.flushers <- ep.flushers + 1;
      fl
    end
  in
  fl.fl_ob <- ob;
  ob.ob_fl <- fl

(* The timer's flush; a buffer it leaves empty returns the flusher to the
   free list. Every earlier arming of this timer was due no later than
   the one firing now, so no queue entry it leaves behind can fire for the
   next buffer to take it, whose arming is due a linger window later. *)
and on_flush_timer tr ep fl =
  let ob = fl.fl_ob in
  flush_obuf tr ep ob;
  match ob.ob_parts with
  | [] ->
      ob.ob_fl <- no_flusher;
      fl.fl_ob <- no_obuf;
      fl.fl_next <- ep.idle;
      ep.idle <- fl
  | _ :: _ -> ()

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
          | acks, [ payload ] -> reliable_send tr ep ~dst ~acks payload
          | acks, protos -> reliable_send tr ep ~dst ~acks (Wire.Batch protos))

(* Send [parts] toward [dst] without reliability framing: a lone message
   goes as itself, several coalesce into one [Wire.Batch]. *)
and send_coalesced tr ep ~dst parts =
  match parts with
  | [] -> ()
  | [ msg ] -> transmit_raw tr ~src:ep.sid ~dst msg
  | parts -> emit_batch tr ep ~dst ~attempt:1 ~unbatched:parts (Wire.Batch parts)

(* One coalesced envelope onto the wire, with batching telemetry:
   [unbatched] is its parts as each would have been sent on its own. *)
and emit_batch tr ep ~dst ~attempt ~unbatched msg =
  let bytes = Wire.size_bytes msg in
  wire tr ~src:ep.sid ~dst ~attempt ~bytes msg;
  let alone = List.fold_left (fun acc m -> acc + Wire.size_bytes m) 0 unbatched in
  let parts = List.length unbatched in
  Network.account_batch tr.net ~parts ~saved:(max 0 (alone - bytes));
  match tr.i_batch with
  | Some h -> Histogram.observe h (float_of_int parts)
  | None -> ()

(* ---------------- reliable delivery ---------------- *)

and reliable_send tr ep ~dst ~acks msg =
  let p = peer_of ep dst in
  let seq = p.next_seq in
  p.next_seq <- seq + 1;
  tr.c.reliable_msgs <- tr.c.reliable_msgs + 1;
  let entry =
    { o_payload = msg; o_attempts = 0; o_sent = 0.; o_live = false;
      o_timer = None }
  in
  outbox_add ep p seq entry;
  let depth = Itbl.length p.outbox in
  if depth > tr.c.outbox_peak then tr.c.outbox_peak <- depth;
  if tr.max_inflight > 0 && p.live >= tr.max_inflight then begin
    (* Window full: backpressure. The entry stays durably in the outbox
       but pays no transmission and arms no timer until an ack retires a
       window entry and promotes it. Piggybacked acks are unreliable and
       must not wait — let them go now. *)
    tr.c.backpressured <- tr.c.backpressured + 1;
    backlog_add p seq;
    send_coalesced tr ep ~dst acks
  end
  else enter_window tr ep p ~dst ~acks ~seq entry

(* [entry] takes a slot in [p]'s window and goes out with [acks]. On a
   poisoned route it does not pay the immediate transmission but probes
   at the capped cadence (the acks go alone); an ack (or any traffic from
   the peer) flushes the whole outbox at once. *)
and enter_window tr ep p ~dst ~acks ~seq entry =
  entry.o_live <- true;
  p.live <- p.live + 1;
  if p.suspect then begin
    send_coalesced tr ep ~dst acks;
    arm_retransmit tr ep p ~dst ~seq entry ~delay:rto_cap
  end
  else transmit tr ep p ~dst ~acks ~probe:false ~seq entry

and transmit tr ep p ~dst ~acks ~probe ~seq entry =
  entry.o_attempts <- entry.o_attempts + 1;
  entry.o_sent <- Engine.now tr.engine;
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
  let frame = Wire.Req { seq; payload = entry.o_payload } in
  let single =
    match entry.o_payload with
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
      let protos = match entry.o_payload with Wire.Batch l -> l | m -> [ m ] in
      let req m = Wire.Req { seq; payload = m } in
      emit_batch tr ep ~dst ~attempt:entry.o_attempts
        ~unbatched:(acks @ List.map req protos)
        (match acks with [] -> frame | _ -> Wire.Batch (acks @ [ frame ])));
  arm_retransmit tr ep p ~dst ~seq entry ~delay:(rto_for tr ep p entry.o_attempts)

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

and arm_retransmit tr ep p ~dst ~seq entry ~delay =
  (match tr.i_rto with Some h -> Histogram.observe h delay | None -> ());
  (* One timer slot per outbox entry, allocated at the first arming and
     re-armed for every retransmission — no fresh closure per attempt. *)
  let tm =
    match entry.o_timer with
    | Some tm -> tm
    | None ->
        let tm = Engine.timer tr.engine (fun () -> on_rto tr ep p ~dst ~seq entry) in
        entry.o_timer <- Some tm;
        tm
  in
  Engine.arm tm ~delay

and on_rto tr ep p ~dst ~seq entry =
  (* Timer fired with the message still unacknowledged. A crashed sender's
     timers are cancelled; restart re-arms them from the (durable) outbox,
     so the up check is belt-and-braces. *)
  if ep.up && Itbl.mem p.outbox seq then begin
    tr.c.timeouts <- tr.c.timeouts + 1;
    p.strikes <- p.strikes + 1;
    if (not p.suspect) && p.strikes >= poison_after then begin
      p.suspect <- true;
      if Trace.enabled tr.trace then
        Trace.instant tr.trace ~ts:(Engine.now tr.engine) ~tid:ep.sid
          ~name:"route.poisoned"
          [ ("dst", Trace.Int dst); ("strikes", Trace.Int p.strikes) ];
      Log.debug (fun m ->
          m "snode %d: route to snode %d poisoned after %d timeouts" ep.sid
            dst p.strikes)
    end;
    (* Retry budget: past it, further retransmissions become rate-limited
       probes — still sent (a silently-restarted peer must eventually hear
       the message) but at the capped cadence only and counted apart, so
       a retry storm's amplification stays bounded by construction. *)
    let probe = tr.retry_budget > 0 && entry.o_attempts > tr.retry_budget in
    transmit tr ep p ~dst ~acks:[] ~probe ~seq entry
  end

and on_ack tr ep ~from ~seq ~floor =
  let p = peer_of ep from in
  let answered = retire tr p seq in
  (* Cumulative: the peer has processed every seq up to [floor], so also
     retire older entries whose own ack was lost — walking the table only
     when one may be outstanding. *)
  while p.oldest < p.next_seq && not (Itbl.mem p.outbox p.oldest) do
    p.oldest <- p.oldest + 1
  done;
  let answered =
    if p.oldest > floor then answered
    else
      Itbl.fold (fun s _ acc -> if s <= floor then s :: acc else acc)
        p.outbox []
      |> List.fold_left (fun answered s -> retire tr p s || answered) answered
  in
  release_outbox ep p;
  if answered then begin
    peer_answered tr ep p ~pid:from;
    refill_window tr ep p ~pid:from
  end

(* Retire outbox entry [s] on its ack; [false] for a duplicate ack. *)
and retire tr p s =
  match Itbl.find p.outbox s with
  | exception Not_found -> false
  | entry ->
      Itbl.remove p.outbox s;
      Option.iter Engine.disarm entry.o_timer;
      if entry.o_live then begin
        entry.o_live <- false;
        p.live <- p.live - 1
      end;
      (* Karn's rule: only a never-retransmitted message yields an
         unambiguous RTT sample. *)
      if tr.adaptive_rto && entry.o_attempts = 1 then
        rtt_sample p (Engine.now tr.engine -. entry.o_sent);
      true

(* Acks freed window slots: promote backlogged messages in issue order.
   Entries retired while waiting (a cumulative ack can cover them) are
   skipped. An unbounded window ([max_inflight = 0]) never fills, so only
   a restart puts entries in its backlog. *)
and refill_window tr ep p ~pid =
  while
    (tr.max_inflight = 0 || p.live < tr.max_inflight)
    && not (Queue.is_empty p.backlog)
  do
    let seq = Queue.pop p.backlog in
    match Itbl.find_opt p.outbox seq with
    | None -> ()
    | Some entry -> enter_window tr ep p ~dst:pid ~acks:[] ~seq entry
  done;
  release_backlog p

(* Any message from a peer proves it alive: clear the strikes and, if the
   route was poisoned, retry everything still inside the window for it
   immediately (backlogged entries keep waiting for a slot). *)
and peer_answered tr ep p ~pid =
  p.strikes <- 0;
  if p.suspect then begin
    p.suspect <- false;
    Log.debug (fun m ->
        m "snode %d: snode %d answered; flushing %d queued messages" ep.sid
          pid (Itbl.length p.outbox));
    in_seq_order p (fun e -> e.o_live)
    |> List.iter (fun (seq, e) ->
           Option.iter Engine.disarm e.o_timer;
           transmit tr ep p ~dst:pid ~acks:[] ~probe:false ~seq e)
  end

(* Every network delivery lands here: a down endpoint absorbs everything
   (the sender keeps retransmitting), link-layer frames are unwrapped and
   deduplicated, protocol messages go up to [deliver]. *)
and receive tr ep ~from msg =
  if ep.up then
    match msg with
    | Wire.Batch parts ->
        (* Coalesced envelope: parts are processed in issue order, so
           per-(src, dst) FIFO is preserved through batching. *)
        List.iter (fun part -> receive tr ep ~from part) parts
    | Wire.Ack { seq; floor } -> on_ack tr ep ~from ~seq ~floor
    | Wire.Req { seq; payload } ->
        let p = peer_of ep from in
        let fresh =
          if seq = p.floor + 1 && Itbl.length p.seen = 0 then begin
            (* In order with no gap pending: the floor just moves up. *)
            p.floor <- seq;
            true
          end
          else if seq > p.floor && not (Itbl.mem p.seen seq) then begin
            seen_add p seq;
            while Itbl.mem p.seen (p.floor + 1) do
              Itbl.remove p.seen (p.floor + 1);
              p.floor <- p.floor + 1
            done;
            release_seen p;
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
        if fresh then begin
          match payload with
          | Wire.Batch parts ->
              List.iter (fun part -> tr.deliver ~dst:ep.sid ~from part) parts
          | payload -> tr.deliver ~dst:ep.sid ~from payload
        end
    | msg -> tr.deliver ~dst:ep.sid ~from msg

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
      p.suspect <- false;
      p.strikes <- 0;
      (* RTT estimates are soft state, like suspicions. *)
      p.rtt <- no_rtt;
      Itbl.iter
        (fun _ e ->
          Option.iter Engine.disarm e.o_timer;
          e.o_attempts <- 0)
        p.outbox)
    ep.peers;
  Itbl.iter (fun _ ob -> Engine.disarm ob.ob_fl.fl_timer) ep.obufs

let restart tr sid =
  let ep = tr.eps.(sid) in
  ep.up <- true;
  (* Re-send everything still unacknowledged. The whole outbox re-enters
     through the backlog, so the restart burst respects the window too. *)
  Itbl.iter
    (fun pid p ->
      p.backlog <- no_backlog;
      p.live <- 0;
      in_seq_order p (fun _ -> true)
      |> List.iter (fun (seq, e) ->
             e.o_live <- false;
             backlog_add p seq);
      refill_window tr ep p ~pid)
    ep.peers;
  (* Flush timers died with the crash; anything still staged (on a
     buffer that kept its flusher) goes out one linger window from now. *)
  Itbl.iter
    (fun _ ob ->
      if ob.ob_parts <> [] then Engine.arm ob.ob_fl.fl_timer ~delay:tr.linger)
    ep.obufs

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
        Itbl.fold (fun dst ob acc -> (dst, ob) :: acc) ep.obufs []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.iter (fun (_, ob) ->
               Engine.disarm ob.ob_fl.fl_timer;
               flush_obuf tr ep ob))
    tr.eps

(* Outbox plus backlog lengths over all peers; a backlogged message is
   still in the outbox, so it weighs twice. *)
let queue_depth tr sid =
  Itbl.fold
    (fun _ p acc -> acc + Itbl.length p.outbox + Queue.length p.backlog)
    tr.eps.(sid).peers 0

(* Bounded-queue audit: the structural invariants of the degradation layer,
   and the footprint rule that a drained queue is released. Cheap enough to
   run at every explorer step. *)
let audit tr =
  let issues = ref [] in
  let fail fmt = Format.kasprintf (fun s -> issues := s :: !issues) fmt in
  Array.iter
    (fun ep ->
      if Itbl.length ep.spare > 0 then
        fail "snode %d: spare outbox holds %d entries" ep.sid
          (Itbl.length ep.spare);
      Itbl.iter
        (fun pid p ->
          let unreleased what =
            fail "snode %d -> %d: drained %s not released" ep.sid pid what
          in
          if stale_seen p then unreleased "dedup window";
          if stale_backlog p then unreleased "backlog";
          if stale_outbox p then unreleased "outbox";
          let live =
            Itbl.fold
              (fun _ e acc -> if e.o_live then acc + 1 else acc)
              p.outbox 0
          in
          if live <> p.live then
            fail "snode %d -> %d: window accounting drift (%d counted, %d live)"
              ep.sid pid p.live live;
          if tr.max_inflight > 0 && p.live > tr.max_inflight then
            fail "snode %d -> %d: %d in flight exceeds the window of %d"
              ep.sid pid p.live tr.max_inflight)
        ep.peers;
      (* The flush-timer pool: every flusher ever made is either free and
         disarmed or attached to the one buffer it points back at, and
         staged parts on an up endpoint always have an armed timer. The
         free-list walk is bounded, so a cycle cannot hang the audit. *)
      let free = ref 0 and fl = ref ep.idle in
      while !fl != no_flusher && !free <= ep.flushers do
        if !fl.fl_ob != no_obuf then
          fail "snode %d: free flusher still attached toward %d" ep.sid
            !fl.fl_ob.ob_dst;
        if Engine.armed !fl.fl_timer then
          fail "snode %d: free flush timer armed" ep.sid;
        incr free;
        fl := !fl.fl_next
      done;
      let attached =
        Itbl.fold
          (fun dst ob n ->
            if ep.up && ob.ob_parts <> [] && not (Engine.armed ob.ob_fl.fl_timer)
            then
              fail "snode %d -> %d: staged parts without an armed flush timer"
                ep.sid dst;
            if ob.ob_fl == no_flusher then n
            else begin
              if ob.ob_fl.fl_ob != ob then
                fail "snode %d -> %d: flusher belongs to another buffer" ep.sid
                  dst;
              n + 1
            end)
          ep.obufs 0
      in
      if !free + attached <> ep.flushers then
        fail "snode %d: %d flushers made, %d free and %d attached" ep.sid
          ep.flushers !free attached)
    tr.eps;
  List.rev !issues

type pool_fault = Leak | Share | Arm_free | Disarm_staged

let plant_pool_fault tr sid fault =
  let ep = tr.eps.(sid) in
  let bufs = Itbl.fold (fun _ ob acc -> ob :: acc) ep.obufs [] in
  let find what keep =
    match List.find_opt keep bufs with
    | Some ob -> ob
    | None -> invalid_arg ("Transport.plant_pool_fault: no " ^ what)
  in
  let attached ob = ob.ob_fl != no_flusher in
  match fault with
  | Leak -> (find "attached buffer" attached).ob_fl <- no_flusher
  | Share ->
      let ob = find "attached buffer" attached in
      (find "second buffer" (fun o -> o != ob)).ob_fl <- ob.ob_fl
  | Arm_free ->
      if ep.idle == no_flusher then
        invalid_arg "Transport.plant_pool_fault: no free flusher";
      Engine.arm ep.idle.fl_timer ~delay:tr.linger
  | Disarm_staged ->
      let ob = find "staged buffer" (fun ob -> ob.ob_parts <> []) in
      Engine.disarm ob.ob_fl.fl_timer

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
                  ps_rttvar = p.rtt.rttvar; ps_strikes = p.strikes;
                  ps_suspect = p.suspect; ps_outbox = Itbl.length p.outbox;
                  ps_backlog = Queue.length p.backlog }))
