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
    | Transport.Share -> stage [ 1; 2 ]);
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

(* An acked message is let go at once, not at its retransmission deadline.
   Eight payloads go reliably from snode 0 to 1 with a 1 ms RTO; once all
   are delivered and acked, their timers' queue entries are still waiting
   for that deadline, yet nothing holds the payloads any more. Then the
   dead entries dispatch as no-ops and the run ends sound. *)
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
  Engine.run engine;
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

let suite =
  [
    QCheck_alcotest.to_alcotest prop_exactly_once;
    Alcotest.test_case "crash absorbs, restart re-sends" `Quick test_crash_restart;
    Alcotest.test_case "out-of-order frame, then the gap fills" `Quick test_gap_fill;
    Alcotest.test_case "a grown outbox keeps its fold order" `Quick
      test_grown_outbox_order;
    Alcotest.test_case "the audit catches a broken flush-timer pool" `Quick
      test_pool_audit;
    Alcotest.test_case "acked payloads can be collected" `Quick
      test_acked_payloads_collectable;
    Alcotest.test_case "a re-armed acked payload can be collected" `Quick
      test_rearmed_payload_collectable;
    Alcotest.test_case "restart flushes in the buffer table's order" `Quick
      test_restart_flush_order;
  ]
