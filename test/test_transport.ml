(* The transport on its own: an engine, a network and [Transport], with a
   deliver function that records what reaches each snode — no runtime.
   Whatever the fault plan, linger window and inflight bound, every payload
   sent is delivered exactly once; on a fault-free network, in per-(src,
   dst) send order; and the window bookkeeping audits clean after every
   event. *)

module Transport = Dht_snode.Transport
module Wire = Dht_snode.Wire
module Engine = Dht_event_sim.Engine
module Network = Dht_event_sim.Network
module Fault = Dht_event_sim.Fault
module Rng = Dht_prng.Rng

let check = Alcotest.check

(* One network-latency quantum on the gigabit link every test here uses:
   the batching window when a setup coalesces. *)
let quantum = Network.gigabit.Network.base_latency

type setup = {
  seed : int;
  snodes : int;
  faults : (float * float * float) option;  (* drop, duplicate, jitter *)
  batching : bool;  (* linger = one network quantum, else 0 *)
  max_inflight : int;
  sends : (float * int * int) list;  (* issue time, src, dst *)
}

let setup_gen =
  let open QCheck.Gen in
  let* seed = small_nat in
  let* snodes = int_range 2 4 in
  let* faults =
    opt
      (triple (float_bound_inclusive 0.3) (float_bound_inclusive 0.2)
         (float_bound_inclusive 2e-4))
  in
  let* batching = bool in
  let* max_inflight = oneofl [ 0; 1; 3 ] in
  let+ sends =
    list_size (int_range 1 40)
      (triple (float_bound_inclusive 1e-3) (int_bound (snodes - 1))
         (int_bound (snodes - 1)))
  in
  { seed; snodes; faults; batching; max_inflight; sends }

let print_setup s =
  Printf.sprintf "seed %d, %d snodes, faults %s, linger %s, max_inflight %d, %d sends"
    s.seed s.snodes
    (match s.faults with
    | None -> "none"
    | Some (d, u, j) -> Printf.sprintf "drop %g dup %g jitter %g" d u j)
    (if s.batching then "quantum" else "0")
    s.max_inflight (List.length s.sends)

(* Run one setup to quiescence. Payload [i] is the [i]-th send, carried as
   [Busy { token = i }]; returns the (src, dst, token) deliveries in
   delivery order, or fails on an audit finding or a runaway schedule. *)
let run s =
  let engine = Engine.create () in
  let faults =
    Option.map
      (fun (drop, duplicate, jitter) ->
        Fault.create ~drop ~duplicate ~jitter ~seed:s.seed ())
      s.faults
  in
  let net = Network.create ?faults engine Network.gigabit in
  let delivered = ref [] in
  let tr =
    Transport.create engine net
      ~rngs:(Array.init s.snodes (fun i -> Rng.of_int ((1000 * s.seed) + i)))
      ~rto:1e-3 ~retry_budget:0 ~adaptive_rto:false
      ~max_inflight:s.max_inflight
      ~linger:(if s.batching then quantum else 0.)
      ~metrics:None ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst ~from msg ->
        match msg with
        | Wire.Busy { token } -> delivered := (from, dst, token) :: !delivered
        | _ -> Alcotest.fail "deliver saw a non-payload message")
  in
  List.iteri
    (fun i (at, src, dst) ->
      Engine.at engine ~time:at (fun () ->
          Transport.send tr ~src ~dst (Wire.Busy { token = i })))
    s.sends;
  let steps = ref 0 in
  while Engine.step engine do
    incr steps;
    if !steps > 1_000_000 then Alcotest.fail "schedule did not quiesce";
    match Transport.audit tr with
    | [] -> ()
    | findings -> Alcotest.fail (String.concat "\n" findings)
  done;
  List.rev !delivered

let prop_exactly_once =
  QCheck.Test.make ~name:"every payload delivered exactly once, FIFO without faults"
    ~count:150
    (QCheck.make ~print:print_setup setup_gen)
    (fun s ->
      let delivered = run s in
      let sent = List.mapi (fun i (_, src, dst) -> (src, dst, i)) s.sends in
      (* Exactly once: the deliveries are a permutation of the sends. *)
      List.sort compare delivered = List.sort compare sent
      && (s.faults <> None
         ||
         (* Fault-free: per (src, dst), delivery order is send order. Sends
            are ordered by issue time, ties by their index (the engine
            dispatches same-time events in scheduling order). *)
         let by_issue =
           List.mapi (fun i (at, src, dst) -> (at, i, src, dst)) s.sends
           |> List.sort compare
         in
         let stream pairs src dst =
           List.filter_map
             (fun (s', d', i) -> if s' = src && d' = dst then Some i else None)
             pairs
         in
         let issued = List.map (fun (_, i, src, dst) -> (src, dst, i)) by_issue in
         List.for_all
           (fun (_, _, src, dst) ->
             stream issued src dst = stream delivered src dst)
           by_issue))

(* Crash and restart on their own: a payload sent toward a down endpoint
   is absorbed, retransmitted from the durable outbox and delivered once
   after the restart. *)
let test_crash_restart () =
  let engine = Engine.create () in
  let faults = Fault.create ~seed:1 () in
  let net = Network.create ~faults engine Network.gigabit in
  let got = ref [] in
  let tr =
    Transport.create engine net ~rngs:(Array.init 2 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:false ~max_inflight:1 ~linger:0.
      ~metrics:None ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst:_ ~from:_ msg -> got := msg :: !got)
  in
  Transport.crash tr 1;
  Transport.send tr ~src:0 ~dst:1 (Wire.Busy { token = 7 });
  Transport.send tr ~src:0 ~dst:1 (Wire.Busy { token = 8 });
  Engine.run ~until:0.01 engine;
  check Alcotest.int "nothing lands on a down endpoint" 0 (List.length !got);
  check Alcotest.int "second payload waits behind the window" 1
    (Transport.counters tr).Transport.backpressured;
  Transport.restart tr 1;
  Engine.run engine;
  check Alcotest.int "both delivered once after restart" 2 (List.length !got);
  check Alcotest.(list string) "window bookkeeping sound" [] (Transport.audit tr);
  check Alcotest.int "outboxes drained" 0 (Transport.queue_depth tr 0)

(* A loopback message that lands while its snode is down is not absorbed
   like a remote one (nothing would retransmit it): it goes up to
   [deliver], which parks it the way the runtime does, and the restart
   handles it, once. *)
let test_loopback_survives_crash () =
  let engine = Engine.create () in
  let faults = Fault.create ~seed:1 () in
  let net = Network.create ~faults engine Network.gigabit in
  let up = ref true and parked = ref [] and handled = ref [] in
  let tr =
    Transport.create engine net ~rngs:(Array.init 2 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0 ~linger:0.
      ~metrics:None ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst:_ ~from:_ msg ->
        if !up then handled := msg :: !handled else parked := msg :: !parked)
  in
  Transport.send tr ~src:0 ~dst:0 (Wire.Busy { token = 7 });
  Transport.crash tr 0;
  up := false;
  Engine.run ~until:0.01 engine;
  check Alcotest.int "nothing handled while down" 0 (List.length !handled);
  Transport.restart tr 0;
  up := true;
  List.iter (fun m -> handled := m :: !handled) (List.rev !parked);
  parked := [];
  Engine.run engine;
  check Alcotest.int "handled once after the restart" 1 (List.length !handled);
  check Alcotest.(list string) "window bookkeeping sound" [] (Transport.audit tr)

(* The dedup window's slow path on its own: the first frame (seq 0) is
   held back, so seq 1 lands first, is delivered and is remembered above
   the floor; when seq 0 fills the gap it is delivered too, the floor
   moves past both and the drained window is released (the audit's
   footprint rule, checked after every event). *)
let test_gap_fill () =
  let engine = Engine.create () in
  let faults = Fault.create ~seed:1 () in
  let net = Network.create ~faults engine Network.gigabit in
  Network.set_probe net
    (Some
       (fun ~site ~src:_ ~dst:_ ~tag:_ ->
         if site = 0 then Network.Defer 2e-4 else Network.Pass));
  let got = ref [] in
  let tr =
    Transport.create engine net ~rngs:(Array.init 2 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0 ~linger:0.
      ~metrics:None ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst:_ ~from:_ msg ->
        match msg with
        | Wire.Busy { token } -> got := token :: !got
        | _ -> Alcotest.fail "deliver saw a non-payload message")
  in
  Transport.send tr ~src:0 ~dst:1 (Wire.Busy { token = 0 });
  Transport.send tr ~src:0 ~dst:1 (Wire.Busy { token = 1 });
  let early = ref ([], 0) in
  while Engine.step engine do
    if Engine.now engine < 2e-4 then early := (!got, Network.messages net);
    check Alcotest.(list string) "audit after every event" [] (Transport.audit tr)
  done;
  (* Before seq 0 lands, seq 1 has landed: delivered, and acked as the
     third message. *)
  check Alcotest.(pair (list int) int) "seq 1 lands first" ([ 1 ], 3) !early;
  check Alcotest.(list int) "each delivered once" [ 1; 0 ] (List.rev !got);
  check Alcotest.int "no retransmission needed" 0
    (Transport.counters tr).Transport.retransmits;
  check Alcotest.int "outboxes drained" 0 (Transport.queue_depth tr 0)

(* A drained outbox that grew keeps its wider bucket layout. Forty
   payloads toward a crashed snode grow one outbox past its 32-entry
   resize threshold; after the restart they are all acked, retransmitted
   and so never sampled. Then a burst of six, issued 10 us apart, loses
   its first five acks: the sixth ack's cumulative floor retires the other
   five in the outbox's bucket order, and under the adaptive RTO each
   retire feeds one RTT sample, so the estimate depends on that order.
   The srtt/rttvar pinned below are the eager-table transport's, where
   every outbox kept its layout for good; a grown outbox given back to a
   fresh 16-bucket table would fold 40..44 in another order. *)
let test_grown_outbox_order () =
  let engine = Engine.create () in
  let faults = Fault.create ~seed:1 () in
  let net = Network.create ~faults engine Network.gigabit in
  let lost_acks = ref 0 in
  Network.set_probe net
    (Some
       (fun ~site:_ ~src ~dst ~tag ->
         if src = 1 && dst = 0 && tag = Some "ack" && !lost_acks > 0 then begin
           decr lost_acks;
           Network.Sink
         end
         else Network.Pass));
  let got = ref 0 in
  let tr =
    Transport.create engine net ~rngs:(Array.init 2 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:true ~max_inflight:0 ~linger:0.
      ~metrics:None ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst:_ ~from:_ _ -> incr got)
  in
  let drain () =
    while Engine.step engine do
      check Alcotest.(list string) "audit after every event" [] (Transport.audit tr)
    done
  in
  Transport.crash tr 1;
  for token = 0 to 39 do
    Transport.send tr ~src:0 ~dst:1 (Wire.Busy { token })
  done;
  Engine.run ~until:0.1 engine;
  Transport.restart tr 1;
  drain ();
  check Alcotest.int "outbox grew past 32" 40
    (Transport.counters tr).Transport.outbox_peak;
  check Alcotest.int "first wave delivered and drained" 40 !got;
  check Alcotest.int "outboxes drained" 0 (Transport.queue_depth tr 0);
  lost_acks := 5;
  let resent = (Transport.counters tr).Transport.retransmits in
  let t0 = Engine.now engine in
  for i = 0 to 5 do
    Engine.at engine
      ~time:(t0 +. 1e-3 +. (float_of_int i *. 1e-5))
      (fun () -> Transport.send tr ~src:0 ~dst:1 (Wire.Busy { token = 40 + i }))
  done;
  drain ();
  check Alcotest.int "burst delivered" 46 !got;
  check Alcotest.int "five acks lost" 0 !lost_acks;
  check Alcotest.int "burst needed no retransmission" resent
    (Transport.counters tr).Transport.retransmits;
  let p =
    List.find
      (fun (p : Transport.peer_sample) -> p.ps_observer = 0 && p.ps_peer = 1)
      (Transport.peer_samples tr)
  in
  check Alcotest.(pair string string) "RTT estimate in the eager tables' order"
    ("0x1.e37212b962522p-14", "0x1.b9405639fbadap-16")
    (Printf.sprintf "%h" p.ps_srtt, Printf.sprintf "%h" p.ps_rttvar)

(* The audit's buffer-pool rules, each broken on purpose. Snode 0 stages
   toward 1 and 2 on a fault-free network with batching on; the first
   wave's flushes return both buffers, with their timers, to the free
   list. Then each fault is planted into a fresh copy of a state it fits,
   and the audit must name it. *)
let test_pool_audit () =
  let fresh () =
    let engine = Engine.create () in
    let net = Network.create engine Network.gigabit in
    let tr =
      Transport.create engine net ~rngs:(Array.init 3 Rng.of_int) ~rto:1e-3
        ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0
        ~linger:quantum ~metrics:None
        ~trace:Dht_telemetry.Trace.noop ~xmit:None
        ~deliver:(fun ~dst:_ ~from:_ _ -> ())
    in
    let stage dsts =
      List.iter
        (fun dst -> Transport.send tr ~src:0 ~dst (Wire.Busy { token = dst }))
        dsts
    in
    stage [ 1; 2 ];
    check Alcotest.(list string) "staged: sound" [] (Transport.audit tr);
    Engine.run engine;
    check Alcotest.(list string) "flushed: sound" [] (Transport.audit tr);
    (tr, stage)
  in
  let expect name fault finding =
    let tr, stage = fresh () in
    (match fault with
    | Transport.Arm_free -> ()
    | Transport.Leak | Transport.Disarm_staged -> stage [ 1 ]
    | Transport.Share -> stage [ 1; 2 ]
    | Transport.Leak_queues | Transport.Write_sentinel ->
        Alcotest.fail "not a buffer fault");
    check Alcotest.(list string) (name ^ ": sound before") []
      (Transport.audit tr);
    Transport.plant_pool_fault tr 0 fault;
    let findings = Transport.audit tr in
    if not (List.mem finding findings) then
      Alcotest.failf "%s: %S not among [%s]" name finding
        (String.concat "; " findings)
  in
  expect "leaked buffer" Transport.Leak
    "snode 0: 2 buffers made, 1 free and 0 bound";
  expect "shared buffer" Transport.Share
    "snode 0 -> 2: buffer belongs to another destination";
  expect "armed free timer" Transport.Arm_free
    "snode 0: free flush timer armed";
  expect "staged, disarmed" Transport.Disarm_staged
    "snode 0 -> 1: staged parts without an armed flush timer"

(* A reliable transport of three snodes on a fault plan that loses
   nothing: snode 0 sends to 1 and 2, and once both are acked their queue
   records are back in snode 0's pool. *)
let drained_reliable () =
  let engine = Engine.create () in
  let net =
    Network.create ~faults:(Fault.create ~seed:1 ()) engine Network.gigabit
  in
  let tr =
    Transport.create engine net ~rngs:(Array.init 3 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0 ~linger:0.
      ~metrics:None ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst:_ ~from:_ _ -> ())
  in
  List.iter
    (fun dst -> Transport.send tr ~src:0 ~dst (Wire.Busy { token = dst }))
    [ 1; 2 ];
  Engine.run engine;
  check Alcotest.(list string) "drained: sound" [] (Transport.audit tr);
  tr

(* The queue-record pool's count: with one frame in flight toward snode 1,
   one of snode 0's two records is bound and one free. A peer that drops
   its record without giving it back leaves the count one short. *)
let test_queue_leak_audit () =
  let tr = drained_reliable () in
  Transport.send tr ~src:0 ~dst:1 (Wire.Busy { token = 3 });
  check Alcotest.(list string) "in flight: sound" [] (Transport.audit tr);
  Transport.plant_pool_fault tr 0 Transport.Leak_queues;
  check Alcotest.(list string) "leaked record named"
    [ "snode 0: 2 queue records made, 1 free and 0 bound" ]
    (Transport.audit tr)

(* A written sentinel is named by the audit of any transport, as every
   transport shares it; planting the write again undoes it. *)
let test_sentinel_audit () =
  let tr = drained_reliable () in
  Transport.plant_pool_fault tr 0 Transport.Write_sentinel;
  let findings =
    Fun.protect
      (fun () -> Transport.audit tr)
      ~finally:(fun () ->
        Transport.plant_pool_fault tr 0 Transport.Write_sentinel)
  in
  check Alcotest.(list string) "written sentinel named"
    [ "the shared sentinel no_rtt was written" ]
    findings;
  check Alcotest.(list string) "undone: sound" [] (Transport.audit tr)

(* An acked message is let go at once, not at its retransmission deadline.
   Eight payloads go reliably from snode 0 to 1 with a 1 ms RTO; once all
   are delivered and acked, their timers' queue entries are still waiting
   for that deadline, yet nothing holds the payloads any more, and the
   waiting entries hold no closure either: the engine reaches exactly as
   many words as once they have dispatched (a queued closure would reach
   the whole transport). Then the run ends sound. *)
let test_acked_payloads_collectable () =
  let engine = Engine.create () in
  let faults = Fault.create ~seed:1 () in
  let net = Network.create ~faults engine Network.gigabit in
  let got = ref 0 in
  let tr =
    Transport.create engine net ~rngs:(Array.init 2 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0 ~linger:0.
      ~metrics:None ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst:_ ~from:_ _ -> incr got)
  in
  let n = 8 in
  let weak = Weak.create n in
  (* Built apart, so no payload stays in this frame's registers. *)
  let send i =
    let msg = Wire.Busy { token = Sys.opaque_identity i } in
    Weak.set weak i (Some msg);
    Transport.send tr ~src:0 ~dst:1 msg
  in
  for i = 0 to n - 1 do
    send i
  done;
  while Transport.queue_depth tr 0 > 0 && Engine.step engine do
    ()
  done;
  check Alcotest.int "all delivered" n !got;
  check Alcotest.int "outboxes drained" 0 (Transport.queue_depth tr 0);
  check Alcotest.bool "retransmission deadlines still queued" true
    (Engine.pending engine > 0 && Engine.now engine < 1e-3);
  Gc.full_major ();
  for i = 0 to n - 1 do
    check Alcotest.bool (Printf.sprintf "payload %d collectable" i) false
      (Weak.check weak i)
  done;
  let queued = Obj.reachable_words (Obj.repr engine) in
  Engine.run engine;
  check Alcotest.int "words the waiting entries reach" 0
    (queued - Obj.reachable_words (Obj.repr engine));
  check Alcotest.int "no retransmission" 0
    (Transport.counters tr).Transport.retransmits;
  check Alcotest.(list string) "audit" [] (Transport.audit tr)

(* A superseded arming does not pin an acked payload either. Snode 0
   sends one frame and crashes and restarts before its ack lands, so the
   restart re-arms the frame while the first arming's queue entry stays
   queued until its own deadline. The retransmission's ack retires the
   entry; with every frame landed and that older deadline still ahead,
   nothing holds the payload any more. *)
let test_rearmed_payload_collectable () =
  let engine = Engine.create () in
  let faults = Fault.create ~seed:1 () in
  let net = Network.create ~faults engine Network.gigabit in
  let got = ref 0 in
  let tr =
    Transport.create engine net ~rngs:(Array.init 2 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0 ~linger:0.
      ~metrics:None ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst:_ ~from:_ _ -> incr got)
  in
  let weak = Weak.create 1 in
  (* Built apart, so the payload stays in no register of this frame. *)
  let send () =
    let msg = Wire.Busy { token = Sys.opaque_identity 0 } in
    Weak.set weak 0 (Some msg);
    Transport.send tr ~src:0 ~dst:1 msg
  in
  send ();
  Engine.run ~until:1e-5 engine;
  Transport.crash tr 0;
  Transport.restart tr 0;
  Engine.run ~until:5e-4 engine;
  check Alcotest.int "delivered once" 1 !got;
  check Alcotest.int "outbox drained" 0 (Transport.queue_depth tr 0);
  check Alcotest.bool "the first arming is still queued" true
    (Engine.pending engine > 0);
  Gc.full_major ();
  check Alcotest.bool "payload collectable" false (Weak.check weak 0);
  Engine.run engine;
  check Alcotest.int "no timeout" 0 (Transport.counters tr).Transport.timeouts;
  check Alcotest.(list string) "audit" [] (Transport.audit tr)

(* A restart arms the flush timers of staged buffers in the order of the
   endpoint's buffer table, so that order must not depend on the order in
   which destinations gave their buffers back. Snode 0 stages toward
   nineteen destinations and flushes, which frees every buffer; it does so
   again in reverse, so the buffers come back in reverse; then it stages
   once more, crashes before the flush and restarts. The envelopes land in
   the order the restart armed them: the table's bucket order of the first
   stagings, pinned below. A binding removed and re-added when its buffer
   came back would sit in its bucket in the order of the last return. *)
let test_restart_flush_order () =
  let n = 20 in
  let engine = Engine.create () in
  let net = Network.create engine Network.gigabit in
  let landed = ref [] in
  let tr =
    Transport.create engine net ~rngs:(Array.init n Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0 ~linger:quantum
      ~metrics:None ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst ~from:_ _ -> landed := dst :: !landed)
  in
  let up = List.init (n - 1) (fun i -> i + 1) in
  let stage dsts =
    List.iter
      (fun dst -> Transport.send tr ~src:0 ~dst (Wire.Busy { token = dst }))
      dsts
  in
  stage up;
  Engine.run engine;
  stage (List.rev up);
  Engine.run engine;
  check Alcotest.(list string) "flushed: sound" [] (Transport.audit tr);
  landed := [];
  stage up;
  Transport.crash tr 0;
  Engine.run engine;
  Transport.restart tr 0;
  Engine.run engine;
  check Alcotest.(list string) "restarted: sound" [] (Transport.audit tr);
  check Alcotest.(list int) "restart flush order"
    [ 6; 2; 14; 16; 8; 7; 3; 13; 12; 5; 4; 9; 11; 10; 1; 17; 19; 18; 15 ]
    (List.rev !landed)

(* ---------------- the hold rule ---------------- *)

(* A coalescing window ten link quanta long, so that a part held for it
   lands far from one sent at once. *)
let window = 10. *. quantum

type rig = {
  engine : Engine.t;
  tr : Transport.t;
  landed : (float * int * int) list ref;  (* time, dst, token; newest first *)
  sent : (float * int * Wire.msg) list ref;
      (* every envelope put on the network: time, src, message; newest first *)
}

(* Two snodes with a [linger] window, on a fault plan that loses nothing
   when [reliable] (so every remote message is framed and acked), else on
   a fault-free network. With [reply], snode 1 answers each payload it is
   handed with one of its own, from inside the delivery. *)
let rig ~reliable ~linger ~reply =
  let engine = Engine.create () in
  let faults = if reliable then Some (Fault.create ~seed:1 ()) else None in
  let net = Network.create ?faults engine Network.gigabit in
  let landed = ref [] and sent = ref [] and self = ref None in
  let tr =
    Transport.create engine net ~rngs:(Array.init 2 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0 ~linger
      ~metrics:None ~trace:Dht_telemetry.Trace.noop
      ~xmit:
        (Some
           (fun ~tid ~attempt:_ msg ->
             sent := (Engine.now engine, tid, msg) :: !sent))
      ~deliver:(fun ~dst ~from msg ->
        match msg with
        | Wire.Busy { token } ->
            landed := (Engine.now engine, dst, token) :: !landed;
            if reply && dst = 1 then
              Transport.send (Option.get !self) ~src:1 ~dst:from
                (Wire.Busy { token = token + 100 })
        | _ -> Alcotest.fail "deliver saw a non-payload message")
  in
  self := Some tr;
  { engine; tr; landed; sent }

(* Run to quiescence, auditing after every event. *)
let drain r =
  while Engine.step r.engine do
    check Alcotest.(list string) "audit after every event" []
      (Transport.audit r.tr)
  done

let send_at r ~time token =
  Engine.at r.engine ~time (fun () ->
      Transport.send r.tr ~src:0 ~dst:1 (Wire.Busy { token }))

(* When one payload sent at time 0 lands, for a given rig. *)
let lone_landing ~reliable ~linger =
  let r = rig ~reliable ~linger ~reply:false in
  send_at r ~time:0. 0;
  drain r;
  match !(r.landed) with
  | [ (at, 1, 0) ] -> at
  | _ -> Alcotest.fail "the payload did not land once"

(* Under a fault plan, a part toward a peer that owes nothing leaves at
   once: it lands when the same frame sent with batching off lands, with
   no window added. *)
let test_idle_peer_no_linger () =
  let alone = lone_landing ~reliable:true ~linger:0. in
  check (Alcotest.float 0.) "lands after the link delay alone" alone
    (lone_landing ~reliable:true ~linger:window);
  check Alcotest.bool "well inside the window" true (alone < window)

(* Without a fault plan nothing is ever acknowledged, so the first part
   waits the whole window, as it always did. *)
let test_faultless_full_window () =
  let alone = lone_landing ~reliable:false ~linger:0. in
  check (Alcotest.float 0.) "lands one window late" (window +. alone)
    (lone_landing ~reliable:false ~linger:window)

(* Snode 0's first frame leaves at once; while it is unacknowledged, the
   second and third parts, staged 10 us apart, wait the window and share
   one frame, and so land together. *)
let test_inflight_peer_coalesces () =
  let r = rig ~reliable:true ~linger:window ~reply:false in
  send_at r ~time:0. 0;
  send_at r ~time:1e-5 1;
  send_at r ~time:2e-5 2;
  drain r;
  let from0 =
    List.filter_map
      (fun (at, src, msg) -> if src = 0 then Some (at, msg) else None)
      (List.rev !(r.sent))
  in
  (match from0 with
  | [ (0., Wire.Req { seq = 0; payload = Wire.Busy { token = 0 } });
      ( t1,
        Wire.Req
          { seq = 1;
            payload =
              Wire.Batch [ Wire.Busy { token = 1 }; Wire.Busy { token = 2 } ]
          } ) ] ->
      check (Alcotest.float 0.) "held one window" (1e-5 +. window) t1
  | l ->
      Alcotest.failf
        "snode 0 sent %d envelopes, not a lone frame then one frame of two"
        (List.length l));
  match List.rev !(r.landed) with
  | [ (_, 1, 0); (a, 1, 1); (b, 1, 2) ] ->
      check (Alcotest.float 0.) "the held parts land together" a b
  | _ -> Alcotest.fail "the payloads did not land once each, in order"

(* Snode 1 answers a payload from inside its delivery. The ack it owes
   stages first and arms a zero-delay flush (snode 1 owes snode 0
   nothing); the reply staged by the same event joins it, and both leave
   in one envelope at the instant the payload landed. *)
let test_ack_rides_with_reply () =
  let r = rig ~reliable:true ~linger:window ~reply:true in
  send_at r ~time:0. 0;
  drain r;
  let landed_at =
    match List.rev !(r.landed) with
    | [ (at, 1, 0); (_, 0, 100) ] -> at
    | _ -> Alcotest.fail "the payload and its reply did not land once each"
  in
  match
    List.filter_map
      (fun (at, src, msg) -> if src = 1 then Some (at, msg) else None)
      (List.rev !(r.sent))
  with
  | [ ( at,
        Wire.Batch
          [ Wire.Ack { seq = 0; floor = 0 };
            Wire.Req { seq = 0; payload = Wire.Busy { token = 100 } } ] ) ] ->
      check (Alcotest.float 0.) "leaves when the payload lands" landed_at at
  | l ->
      Alcotest.failf "snode 1 sent %d envelopes, not one of ack and reply"
        (List.length l)

(* A crash in the event that staged a part, before its zero-delay flush:
   the flush finds the timer disarmed, the part stays staged, and the
   restart sends it one window later. *)
let test_crash_before_zero_flush () =
  let alone = lone_landing ~reliable:true ~linger:0. in
  let r = rig ~reliable:true ~linger:window ~reply:false in
  let restart_at = 5e-3 in
  Engine.at r.engine ~time:0. (fun () ->
      Transport.send r.tr ~src:0 ~dst:1 (Wire.Busy { token = 0 });
      Transport.crash r.tr 0);
  Engine.at r.engine ~time:restart_at (fun () ->
      check Alcotest.int "nothing left while down" 0 (List.length !(r.sent));
      Transport.restart r.tr 0);
  drain r;
  match !(r.landed) with
  | [ (at, 1, 0) ] ->
      check (Alcotest.float 0.) "sent one window after the restart"
        (restart_at +. window +. alone) at
  | _ -> Alcotest.fail "the payload did not land once"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_exactly_once;
    Alcotest.test_case "crash absorbs, restart re-sends" `Quick test_crash_restart;
    Alcotest.test_case "a loopback survives its snode's crash" `Quick
      test_loopback_survives_crash;
    Alcotest.test_case "out-of-order frame, then the gap fills" `Quick test_gap_fill;
    Alcotest.test_case "a grown outbox keeps its fold order" `Quick
      test_grown_outbox_order;
    Alcotest.test_case "the audit catches a broken flush-timer pool" `Quick
      test_pool_audit;
    Alcotest.test_case "the audit names a leaked queue record" `Quick
      test_queue_leak_audit;
    Alcotest.test_case "the audit names a written sentinel" `Quick
      test_sentinel_audit;
    Alcotest.test_case "acked payloads can be collected" `Quick
      test_acked_payloads_collectable;
    Alcotest.test_case "a re-armed acked payload can be collected" `Quick
      test_rearmed_payload_collectable;
    Alcotest.test_case "restart flushes in the buffer table's order" `Quick
      test_restart_flush_order;
    Alcotest.test_case "a part toward an idle peer is not held" `Quick
      test_idle_peer_no_linger;
    Alcotest.test_case "parts toward an unacked peer share a frame" `Quick
      test_inflight_peer_coalesces;
    Alcotest.test_case "an ack and its reply share an envelope" `Quick
      test_ack_rides_with_reply;
    Alcotest.test_case "without a fault plan the window holds" `Quick
      test_faultless_full_window;
    Alcotest.test_case "a crash before the zero-delay flush" `Quick
      test_crash_before_zero_flush;
  ]
