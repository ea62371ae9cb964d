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

(* A snode's buffer bindings under destinations that share slots: snode 0
   of 41 stages toward destinations equal modulo 8 (and modulo 16 and 32,
   as its table grows), at random instants within three windows, with
   forced flushes at random instants between, so bindings are made and
   released in every order, and released buffers wait out their queued
   armings. Every payload lands once, per destination in send order, and
   the audit is clean after every event: no release loses or moves
   another destination's binding. The link charges no per-byte time: on
   a serializing link a lone part flushed just after a larger batch
   toward the same destination overtakes it, as the network promises no
   order. *)
let prop_colliding_bindings =
  let dsts = [ 1; 8; 9; 16; 17; 24; 25; 32; 33; 40 ] in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 60)
           (pair (float_bound_inclusive (3. *. quantum)) (oneofl dsts)))
        (list_size (int_range 0 4) (float_bound_inclusive (3. *. quantum))))
  in
  let print (sends, flushes) =
    Printf.sprintf "sends [%s], flushes at [%s]"
      (String.concat "; "
         (List.map (fun (at, dst) -> Printf.sprintf "%g -> %d" at dst) sends))
      (String.concat "; " (List.map (Printf.sprintf "%g") flushes))
  in
  QCheck.Test.make ~name:"buffer bindings survive colliding destinations"
    ~count:200 (QCheck.make ~print gen) (fun (sends, flushes) ->
      let engine = Engine.create () in
      let net =
        Network.create engine (Network.link ~base_latency:quantum ~byte_time:0.)
      in
      let delivered = ref [] in
      let tr =
        Transport.create engine net ~rngs:(Array.init 41 Rng.of_int) ~rto:1e-3
          ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0 ~linger:quantum
          ~metrics:None ~trace:Dht_telemetry.Trace.noop ~xmit:None
          ~deliver:(fun ~dst ~from:_ msg ->
            match msg with
            | Wire.Busy { token } -> delivered := (dst, token) :: !delivered
            | _ -> Alcotest.fail "deliver saw a non-payload message")
      in
      List.iteri
        (fun token (at, dst) ->
          Engine.at engine ~time:at (fun () ->
              Transport.send tr ~src:0 ~dst (Wire.Busy { token })))
        sends;
      List.iter
        (fun at ->
          Engine.at engine ~time:at (fun () -> Transport.flush_lingering tr))
        flushes;
      while Engine.step engine do
        match Transport.audit tr with
        | [] -> ()
        | findings -> Alcotest.fail (String.concat "\n" findings)
      done;
      (* Sends by issue time, ties by index, as the engine dispatches. *)
      let issued =
        List.mapi (fun token (at, dst) -> (at, token, dst)) sends
        |> List.sort compare
        |> List.map (fun (_, token, dst) -> (dst, token))
      in
      let stream pairs dst =
        List.filter_map (fun (d, t) -> if d = dst then Some t else None) pairs
      in
      List.length !delivered = List.length sends
      && List.for_all
           (fun dst -> stream issued dst = stream (List.rev !delivered) dst)
           dsts)

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
    | Transport.Arm_free | Transport.Relay_free | Transport.Bind_free
    | Transport.Keep_empty ->
        ()
    | Transport.Leak | Transport.Disarm_staged -> stage [ 1 ]
    | Transport.Share -> stage [ 1; 2 ]
    | Transport.Leak_queues | Transport.Write_sentinel
    | Transport.Relay_sentinel ->
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
    "snode 0 -> 1: staged parts without an armed flush timer";
  expect "relay in a free buffer" Transport.Relay_free
    "snode 0: free buffer holds a relay";
  expect "bound to a free buffer" Transport.Bind_free
    "snode 0 -> 1: bound to a free buffer";
  expect "emptied, still bound" Transport.Keep_empty
    "snode 0 -> 1: bound buffer holds no part"

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
  let planted fault =
    Transport.plant_pool_fault tr 0 fault;
    Fun.protect
      (fun () -> Transport.audit tr)
      ~finally:(fun () -> Transport.plant_pool_fault tr 0 fault)
  in
  check Alcotest.(list string) "written sentinel named"
    [ "the shared sentinel no_rtt was written" ]
    (planted Transport.Write_sentinel);
  check Alcotest.(list string) "relay in the empty buffer named"
    [ "the shared sentinel no_obuf was written" ]
    (planted Transport.Relay_sentinel);
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

(* A restart arms the flush timers of staged buffers in destination
   order, whatever order the destinations were bound in or gave their
   buffers back in. Snode 0 stages toward nineteen destinations and
   flushes, which frees every buffer and unbinds every destination; it
   does so again in reverse, so the buffers come back in reverse; then it
   stages once more in a shuffled order, crashes before the flush and
   restarts. The envelopes land in the order the restart armed them. *)
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
  stage [ 6; 2; 14; 16; 8; 7; 3; 13; 12; 5; 4; 9; 11; 10; 1; 17; 19; 18; 15 ];
  Transport.crash tr 0;
  Engine.run engine;
  Transport.restart tr 0;
  Engine.run engine;
  check Alcotest.(list string) "restarted: sound" [] (Transport.audit tr);
  check Alcotest.(list int) "restart flush order" up (List.rev !landed)

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
  | [ (0., Wire.Req { seq = 0; relay = -1; payload = Wire.Busy { token = 0 } });
      ( t1,
        Wire.Req
          { seq = 1;
            relay = -1;
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
            Wire.Req { seq = 0; relay = -1; payload = Wire.Busy { token = 100 } } ] ) ] ->
      check (Alcotest.float 0.) "leaves when the payload lands" landed_at at
  | l ->
      Alcotest.failf "snode 1 sent %d envelopes, not one of ack and reply"
        (List.length l)

(* A crash in the event that staged a part, before its zero-delay flush:
   the flush finds the timer disarmed, the part stays staged, and the
   restart re-arms it by the same hold rule: snode 1 still owes nothing,
   so the part leaves at the restart instant. *)
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
      check (Alcotest.float 0.) "sent at the restart" (restart_at +. alone) at
  | _ -> Alcotest.fail "the payload did not land once"

(* ---------------- relayed acks ---------------- *)

(* A routed walk over three snodes on a fault plan that loses nothing,
   with a coalescing window: snode 0 (the origin) sends a routed get to
   snode 1 (the steward), which forwards it to snode 2 (the owner), which
   answers the origin from inside its delivery, as the runtime does.
   [wrap] sends every walk leg inside a causal [Traced] wrapper. A remote
   send for which [sink ~src ~dst] holds is lost. *)
type walk = {
  w_engine : Engine.t;
  w_tr : Transport.t;
  replies : int list ref;
      (* the origin's queue depth as each reply is handed up; newest first *)
  envelopes : (int * Wire.msg) list ref;
      (* sender and envelope, as put on the network; newest first *)
  busy : int list ref;  (* [Busy] tokens landed at the origin; newest first *)
}

let walk_rig ?(adaptive_rto = false) ?(wrap = false)
    ?(sink = fun ~src:_ ~dst:_ -> false) () =
  let engine = Engine.create () in
  let net =
    Network.create ~faults:(Fault.create ~seed:1 ()) engine Network.gigabit
  in
  Network.set_probe net
    (Some
       (fun ~site:_ ~src ~dst ~tag:_ ->
         if sink ~src ~dst then Network.Sink else Network.Pass));
  let replies = ref [] and envelopes = ref [] and busy = ref [] in
  let self = ref None in
  let leg msg =
    if wrap then Wire.Traced { trace = 1; span = 1; hop = 1; payload = msg }
    else msg
  in
  let rec deliver ~dst ~from msg =
    let tr = Option.get !self in
    match msg with
    | Wire.Traced { payload; _ } -> deliver ~dst ~from payload
    | Wire.Routed ({ origin; op = Wire.Op_get { token; _ }; _ } as r) ->
        if dst = 1 then
          Transport.send tr ~src:1 ~dst:2
            (leg (Wire.Routed { r with hops = r.hops + 1 }))
        else
          Transport.send tr ~src:dst ~dst:origin
            (Wire.Get_reply { token; value = None; hint = None })
    | Wire.Get_reply _ -> replies := Transport.queue_depth tr 0 :: !replies
    | Wire.Busy { token } -> busy := token :: !busy
    | _ -> Alcotest.fail "deliver saw an unexpected message"
  in
  let tr =
    Transport.create engine net ~rngs:(Array.init 3 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto ~max_inflight:0 ~linger:window
      ~metrics:None ~trace:Dht_telemetry.Trace.noop
      ~xmit:
        (Some (fun ~tid ~attempt:_ msg -> envelopes := (tid, msg) :: !envelopes))
      ~deliver
  in
  self := Some tr;
  let get ~at =
    Engine.at engine ~time:at (fun () ->
        Transport.send tr ~src:0 ~dst:1
          (leg
             (Wire.Routed
                { point = 0; hops = 0; retries = 0; origin = 0;
                  op = Wire.Op_get { key = "k"; token = 7 } })))
  in
  ({ w_engine = engine; w_tr = tr; replies; envelopes; busy }, get)

(* Run to quiescence, auditing after every event; [each] runs first. A
   walk whose frames keep retransmitting fails instead of spinning. *)
let walk_drain ?(each = ignore) w =
  let steps = ref 0 in
  while Engine.step w.w_engine do
    incr steps;
    if !steps > 10_000 then Alcotest.fail "the walk did not quiesce";
    each ();
    check Alcotest.(list string) "audit after every event" []
      (Transport.audit w.w_tr)
  done

(* The relay of an envelope's frame, -1 without one. *)
let rec relay_of = function
  | Wire.Req { relay; _ } -> relay
  | Wire.Batch parts ->
      List.fold_left (fun acc p -> max acc (relay_of p)) (-1) parts
  | _ -> -1

(* The steward's ack to the origin rides the forward and the reply: the
   walk costs three frames and two acks, the steward sends the origin
   nothing, and the origin's entry toward the steward is retired by the
   time the reply is handed up. *)
let test_relayed_walk ~wrap () =
  let w, get = walk_rig ~wrap () in
  get ~at:0.;
  walk_drain w;
  check Alcotest.(list int) "one reply, nothing outstanding as it lands"
    [ 0 ] !(w.replies);
  let sent = List.rev !(w.envelopes) in
  check Alcotest.(list int) "senders: origin, steward, owner twice, origin"
    [ 0; 1; 2; 2; 0 ] (List.map fst sent);
  (match List.map (fun (_, m) -> relay_of m) sent with
  | [ -1; r1; -1; r2; -1 ] when r1 >= 0 && r2 = r1 -> ()
  | _ -> Alcotest.fail "the relay did not ride the forward and the reply");
  check Alcotest.int "no retransmission" 0
    (Transport.counters w.w_tr).Transport.retransmits

(* The forward is lost until the origin has retransmitted: the steward
   answers the duplicate with a direct ack, the forward's own
   retransmission reaches the owner, and the op completes once. *)
let test_lost_forward () =
  let origin_sent = ref 0 in
  let w, get =
    walk_rig ~sink:(fun ~src ~dst -> src = 1 && dst = 2 && !origin_sent < 2) ()
  in
  get ~at:0.;
  walk_drain w ~each:(fun () ->
      origin_sent :=
        List.length (List.filter (fun (src, _) -> src = 0) !(w.envelopes)));
  check Alcotest.bool "the origin retransmitted" true
    ((Transport.counters w.w_tr).Transport.retransmits > 0 && !origin_sent >= 2);
  check Alcotest.bool "the steward acked the origin directly" true
    (List.exists
       (function 1, Wire.Ack _ -> true | _ -> false)
       !(w.envelopes));
  check Alcotest.int "the op completed once" 1 (List.length !(w.replies));
  check Alcotest.int "nothing outstanding" 0 (Transport.queue_depth w.w_tr 0)

(* An ack that arrives relayed took two extra legs: it retires the
   origin's entry but leaves the route's smoothed RTT as the last direct
   ack set it. *)
let test_relay_takes_no_rtt_sample () =
  let w, get = walk_rig ~adaptive_rto:true () in
  Transport.send w.w_tr ~src:0 ~dst:1 (Wire.Busy { token = 1 });
  walk_drain w;
  let srtt () =
    match
      List.find_opt
        (fun s -> s.Transport.ps_observer = 0 && s.Transport.ps_peer = 1)
        (Transport.peer_samples w.w_tr)
    with
    | Some s -> s.Transport.ps_srtt
    | None -> Alcotest.fail "no estimator toward the steward"
  in
  let before = srtt () in
  check Alcotest.bool "a direct ack sampled the route" true (before > 0.);
  get ~at:(Engine.now w.w_engine +. 1e-3);
  walk_drain w;
  check Alcotest.(list int) "the relay retired the origin's entry" [ 0 ]
    !(w.replies);
  check (Alcotest.float 0.) "srtt unchanged" before (srtt ())

(* The steward's buffer toward the origin holds a protocol part besides
   the ack when the walk arrives (a second part, held by the window while
   the first is unacknowledged), so the ack stays there and leaves with
   that part: nothing is relayed, and the part lands once. *)
let test_busy_buffer_keeps_its_ack () =
  let w, get = walk_rig () in
  List.iter
    (fun (at, token) ->
      Engine.at w.w_engine ~time:at (fun () ->
          Transport.send w.w_tr ~src:1 ~dst:0 (Wire.Busy { token })))
    [ (0., 1); (1e-5, 2) ];
  get ~at:2e-5;
  walk_drain w;
  check Alcotest.(list int) "both parts landed once, in order" [ 1; 2 ]
    (List.rev !(w.busy));
  check Alcotest.int "the op completed once" 1 (List.length !(w.replies));
  check Alcotest.bool "nothing relayed" true
    (List.for_all (fun (_, m) -> relay_of m = -1) !(w.envelopes))

(* Random routed walks under loss, duplication, jitter and at most one
   crash-restart: each of up to twelve gets goes from its origin through
   one to three forwarding hops (the remaining path rides in [point], one
   hop per base-8 digit) and is answered by its last hop. Whatever the
   relays do, every get is answered at its origin exactly once, every
   queue drains, and the window bookkeeping audits clean after every
   event. *)
type walks = {
  w_seed : int;
  w_snodes : int;
  w_faults : float * float * float;  (* drop, duplicate, jitter *)
  w_crash : (int * float * float) option;  (* snode, down at, back at *)
  w_gets : (float * int * int list) list;  (* issue time, origin, hops *)
}

let walks_gen =
  let open QCheck.Gen in
  let* w_seed = small_nat in
  let* w_snodes = int_range 3 5 in
  let* w_faults =
    triple (float_bound_inclusive 0.3) (float_bound_inclusive 0.2)
      (float_bound_inclusive 2e-4)
  in
  let* w_crash =
    opt
      (let* sid = int_bound (w_snodes - 1) in
       let* down = float_bound_inclusive 1e-3 in
       let+ span = float_bound_inclusive 2e-3 in
       (sid, down, down +. span))
  in
  (* A path of 1-3 hops, each hop another snode than the one before. *)
  let path origin =
    let* len = int_range 1 3 in
    let rec go prev n =
      if n = 0 then return []
      else
        let* d = int_range 1 (w_snodes - 1) in
        let hop = (prev + d) mod w_snodes in
        let+ rest = go hop (n - 1) in
        hop :: rest
    in
    go origin len
  in
  let+ w_gets =
    list_size (int_range 1 12)
      (let* at = float_bound_inclusive 1e-3 in
       let* origin = int_bound (w_snodes - 1) in
       let+ hops = path origin in
       (at, origin, hops))
  in
  { w_seed; w_snodes; w_faults; w_crash; w_gets }

let print_walks w =
  let d, u, j = w.w_faults in
  Printf.sprintf "seed %d, %d snodes, drop %g dup %g jitter %g, crash %s, gets [%s]"
    w.w_seed w.w_snodes d u j
    (match w.w_crash with
    | None -> "none"
    | Some (sid, a, b) -> Printf.sprintf "snode %d %g-%g" sid a b)
    (String.concat "; "
       (List.map
          (fun (at, o, hops) ->
            Printf.sprintf "%g: %d -> %s" at o
              (String.concat " -> " (List.map string_of_int hops)))
          w.w_gets))

let encode_path hops = List.fold_right (fun h acc -> (acc * 8) + h + 1) hops 0

let prop_walks_answered_once =
  QCheck.Test.make ~name:"relayed walks answered exactly once under faults"
    ~count:150
    (QCheck.make ~print:print_walks walks_gen)
    (fun w ->
      let engine = Engine.create () in
      let drop, duplicate, jitter = w.w_faults in
      let faults = Fault.create ~drop ~duplicate ~jitter ~seed:w.w_seed () in
      let net = Network.create ~faults engine Network.gigabit in
      let answers = Hashtbl.create 16 and self = ref None in
      let deliver ~dst ~from:_ msg =
        let tr = Option.get !self in
        match msg with
        | Wire.Routed ({ point; origin; op = Wire.Op_get { token; _ }; _ } as r)
          ->
            if point = 0 then
              Transport.send tr ~src:dst ~dst:origin
                (Wire.Get_reply { token; value = None; hint = None })
            else
              Transport.send tr ~src:dst ~dst:((point mod 8) - 1)
                (Wire.Routed { r with point = point / 8; hops = r.hops + 1 })
        | Wire.Get_reply { token; _ } ->
            Hashtbl.replace answers (dst, token)
              (1 + Option.value ~default:0 (Hashtbl.find_opt answers (dst, token)))
        | _ -> Alcotest.fail "deliver saw an unexpected message"
      in
      let tr =
        Transport.create engine net
          ~rngs:(Array.init w.w_snodes (fun i -> Rng.of_int ((1000 * w.w_seed) + i)))
          ~rto:1e-3 ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0
          ~linger:quantum ~metrics:None ~trace:Dht_telemetry.Trace.noop
          ~xmit:None ~deliver
      in
      self := Some tr;
      Option.iter
        (fun (sid, down, up) ->
          Engine.at engine ~time:down (fun () -> Transport.crash tr sid);
          Engine.at engine ~time:up (fun () -> Transport.restart tr sid))
        w.w_crash;
      List.iteri
        (fun token (at, origin, hops) ->
          Engine.at engine ~time:at (fun () ->
              Transport.send tr ~src:origin ~dst:(List.hd hops)
                (Wire.Routed
                   { point = encode_path (List.tl hops); hops = 0; retries = 0;
                     origin; op = Wire.Op_get { key = "k"; token } })))
        w.w_gets;
      let steps = ref 0 in
      while Engine.step engine do
        incr steps;
        if !steps > 1_000_000 then Alcotest.fail "schedule did not quiesce";
        match Transport.audit tr with
        | [] -> ()
        | findings -> Alcotest.fail (String.concat "\n" findings)
      done;
      List.for_all
        (fun (token, (_, origin, _)) ->
          Hashtbl.find_opt answers (origin, token) = Some 1)
        (List.mapi (fun i g -> (i, g)) w.w_gets)
      && Hashtbl.length answers = List.length w.w_gets
      && List.for_all
           (fun sid -> Transport.queue_depth tr sid = 0)
           (List.init w.w_snodes Fun.id))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_exactly_once;
    QCheck_alcotest.to_alcotest prop_colliding_bindings;
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
    Alcotest.test_case "restart flushes in the buffers' destination order"
      `Quick test_restart_flush_order;
    Alcotest.test_case "a part toward an idle peer is not held" `Quick
      test_idle_peer_no_linger;
    Alcotest.test_case "parts toward an unacked peer share a frame" `Quick
      test_inflight_peer_coalesces;
    Alcotest.test_case "an ack and its reply share an envelope" `Quick
      test_ack_rides_with_reply;
    Alcotest.test_case "without a fault plan the window holds" `Quick
      test_faultless_full_window;
    Alcotest.test_case "a forwarded walk costs five envelopes" `Quick
      (test_relayed_walk ~wrap:false);
    Alcotest.test_case "a traced walk relays too" `Quick
      (test_relayed_walk ~wrap:true);
    Alcotest.test_case "a lost forward: the steward acks directly" `Quick
      test_lost_forward;
    Alcotest.test_case "a relayed ack takes no RTT sample" `Quick
      test_relay_takes_no_rtt_sample;
    Alcotest.test_case "a buffer with a protocol part keeps its ack" `Quick
      test_busy_buffer_keeps_its_ack;
    QCheck_alcotest.to_alcotest prop_walks_answered_once;
    Alcotest.test_case "a crash before the zero-delay flush" `Quick
      test_crash_before_zero_flush;
  ]
