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
      ~linger:(if s.batching then Network.quantum net else 0.)
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

let suite =
  [
    QCheck_alcotest.to_alcotest prop_exactly_once;
    Alcotest.test_case "crash absorbs, restart re-sends" `Quick test_crash_restart;
  ]
