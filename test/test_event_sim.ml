(* Tests for Dht_event_sim: Heap, Engine, Network. *)

module Heap = Dht_event_sim.Heap
module Engine = Dht_event_sim.Engine
module Network = Dht_event_sim.Network
module Fault = Dht_event_sim.Fault
module Rng = Dht_prng.Rng

let check = Alcotest.check

(* --- Heap --- *)

let test_heap_orders_random_input () =
  let rng = Rng.of_int 1 in
  let h = Heap.create ~dummy:(-1) () in
  let times = Array.init 500 (fun _ -> Rng.float rng) in
  Array.iteri (fun i time -> Heap.push h ~time ~seq:i i) times;
  check Alcotest.int "length" 500 (Heap.length h);
  let last = ref neg_infinity in
  let popped = ref 0 in
  while not (Heap.is_empty h) do
    let t = Heap.min_time h in
    let v = Heap.pop_min h in
    check Alcotest.bool "non-decreasing" true (t >= !last);
    check (Alcotest.float 0.) "payload travels with its time" times.(v) t;
    last := t;
    incr popped
  done;
  check Alcotest.int "all popped" 500 !popped;
  check Alcotest.bool "empty" true (Heap.is_empty h)

let test_heap_fifo_at_equal_times () =
  let h = Heap.create ~dummy:0 () in
  for i = 0 to 9 do
    Heap.push h ~time:1. ~seq:i i
  done;
  for i = 0 to 9 do
    check Alcotest.int "fifo" i (Heap.pop_min h)
  done

let test_heap_peek () =
  let h = Heap.create ~dummy:() () in
  Alcotest.check_raises "empty min_time"
    (Invalid_argument "Heap.min_time: empty heap") (fun () ->
      ignore (Heap.min_time h));
  Alcotest.check_raises "empty pop_min"
    (Invalid_argument "Heap.pop_min: empty heap") (fun () -> Heap.pop_min h);
  Heap.push h ~time:3. ~seq:0 ();
  Heap.push h ~time:1. ~seq:1 ();
  check (Alcotest.float 0.) "min time" 1. (Heap.min_time h);
  check Alcotest.int "min_time does not pop" 2 (Heap.length h)

(* The dummy-slot promise of [Heap.create]: once popped, a payload is no
   longer reachable through the heap, while the payloads still queued are. *)
let test_heap_popped_payload_unreachable () =
  let h = Heap.create ~dummy:(ref (-1)) () in
  let n = 40 in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set weak i (Some payload);
    (* Reverse times, so the popped half is not the first half pushed. *)
    Heap.push h ~time:(float_of_int (n - i)) ~seq:i payload
  done;
  for _ = 1 to n / 2 do
    ignore (Sys.opaque_identity (Heap.pop_min h))
  done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    check Alcotest.bool
      (Printf.sprintf "payload %d reachable iff still queued" i)
      (i < n / 2) (Weak.check weak i)
  done;
  check Alcotest.int "half left" (n / 2) (Heap.length h)

(* --- Engine --- *)

let test_engine_dispatch_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2. (fun () -> log := 2 :: !log);
  Engine.schedule e ~delay:1. (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:3. (fun () -> log := 3 :: !log);
  Engine.run e;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !log);
  check (Alcotest.float 0.) "clock at last event" 3. (Engine.now e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:1. (fun () ->
      fired := ("a", Engine.now e) :: !fired;
      Engine.schedule e ~delay:0.5 (fun () ->
          fired := ("b", Engine.now e) :: !fired));
  Engine.run e;
  match List.rev !fired with
  | [ ("a", ta); ("b", tb) ] ->
      check (Alcotest.float 1e-12) "a at 1" 1. ta;
      check (Alcotest.float 1e-12) "b at 1.5" 1.5 tb
  | _ -> Alcotest.fail "wrong firing sequence"

let test_engine_validation () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative or non-finite delay") (fun () ->
      Engine.schedule e ~delay:(-1.) (fun () -> ()));
  Engine.schedule e ~delay:5. (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past absolute time" (Invalid_argument "Engine.at: time in the past")
    (fun () -> Engine.at e ~time:1. (fun () -> ()))

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count)
  done;
  Engine.run ~until:5.5 e;
  check Alcotest.int "only first five" 5 !count;
  check Alcotest.int "rest pending" 5 (Engine.pending e);
  Engine.run e;
  check Alcotest.int "drained" 10 !count

let test_engine_horizon () =
  (* A timer that re-arms itself forever never quiesces. *)
  let e = Engine.create () in
  let rec tick () = Engine.schedule e ~delay:1. tick in
  tick ();
  Engine.set_horizon e 10.;
  Engine.run ~until:5. e;
  check (Alcotest.float 0.) "until below the horizon stops quietly" 5.
    (Engine.now e);
  Alcotest.check_raises "busy at the horizon" (Engine.Past_horizon 10.)
    (fun () -> Engine.run e);
  check (Alcotest.float 0.) "stopped at the horizon" 10. (Engine.now e)

let test_engine_step_empty () =
  let e = Engine.create () in
  check Alcotest.bool "step on empty" false (Engine.step e)

(* --- Engine against a sorted-list reference model --- *)

(* Scripts of scheduling, cancellation, timer and dispatch operations. All
   delays are dyadic, so times add exactly and collide often: the FIFO
   tie-break among equal times is exercised on most scripts. *)
type op =
  | At of float
  | Schedule of float
  | Chain of float * float  (* the callback schedules a follow-up *)
  | Cancellable of float
  | Cancel of int
  | Arm of int * float
  | Disarm of int
  | Step
  | Run_until of float

let pp_op = function
  | At d -> Printf.sprintf "at+%g" d
  | Schedule d -> Printf.sprintf "schedule %g" d
  | Chain (a, b) -> Printf.sprintf "chain %g %g" a b
  | Cancellable d -> Printf.sprintf "cancellable %g" d
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Arm (i, d) -> Printf.sprintf "arm %d %g" i d
  | Disarm i -> Printf.sprintf "disarm %d" i
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run-until+%g" d

let n_timers = 3

let script_arb =
  let open QCheck.Gen in
  let delay = oneofl [ 0.; 0.25; 0.5; 1. ] in
  let op =
    frequency
      [
        (3, map (fun d -> At d) delay);
        (3, map (fun d -> Schedule d) delay);
        (1, map2 (fun a b -> Chain (a, b)) delay delay);
        (2, map (fun d -> Cancellable d) delay);
        (2, map (fun i -> Cancel i) (int_bound 7));
        (2, map2 (fun i d -> Arm (i, d)) (int_bound (n_timers - 1)) delay);
        (1, map (fun i -> Disarm i) (int_bound (n_timers - 1)));
        (3, return Step);
        (1, map (fun d -> Run_until d) delay);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    (list_size (int_range 0 60) op)

(* What a script shows: every dispatch as (callback id, clock), the queue
   depth and [step]'s result after each operation, the final clock and the
   dispatch count. Timer [i] logs as id [-1 - i]. *)
type observed = {
  log : (int * float) list;
  depths : (int * bool) list;
  clock : float;
  count : int;
}

let run_engine script =
  let e = Engine.create () in
  let log = ref [] and depths = ref [] and next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  let fire id () = log := (id, Engine.now e) :: !log in
  let timers = Array.init n_timers (fun i -> Engine.timer e (fire (-1 - i))) in
  let handles = ref [] in
  List.iter
    (fun op ->
      let stepped =
        match op with
        | At d ->
            Engine.at e ~time:(Engine.now e +. d) (fire (fresh ()));
            false
        | Schedule d ->
            Engine.schedule e ~delay:d (fire (fresh ()));
            false
        | Chain (a, b) ->
            let id = fresh () in
            let id' = fresh () in
            Engine.schedule e ~delay:a (fun () ->
                fire id ();
                Engine.schedule e ~delay:b (fire id'));
            false
        | Cancellable d ->
            let h = Engine.schedule_cancellable e ~delay:d (fire (fresh ())) in
            handles := !handles @ [ h ];
            false
        | Cancel i ->
            (match !handles with
            | [] -> ()
            | hs -> Engine.cancel (List.nth hs (i mod List.length hs)));
            false
        | Arm (i, d) ->
            Engine.arm timers.(i) ~delay:d;
            false
        | Disarm i ->
            Engine.disarm timers.(i);
            false
        | Step -> Engine.step e
        | Run_until d ->
            Engine.run ~until:(Engine.now e +. d) e;
            false
      in
      depths := (Engine.pending e, stepped) :: !depths)
    script;
  Engine.run e;
  { log = List.rev !log; depths = List.rev !depths; clock = Engine.now e;
    count = Engine.dispatched e }

type entry =
  | Plain of int
  | Chained of int * int * float
  | Guarded of int * int  (* handle index, callback id *)
  | Trampoline of int

let run_model script =
  let clock = ref 0. and seq = ref 0 and count = ref 0 in
  (* Kept sorted by (time, seq): the reference for the heap. *)
  let queue = ref [] in
  let push time entry =
    let key = (time, !seq) in
    incr seq;
    let rec insert = function
      | ((k, _) as x) :: rest when compare k key < 0 -> x :: insert rest
      | l -> (key, entry) :: l
    in
    queue := insert !queue
  in
  let log = ref [] and depths = ref [] and next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  let handles = ref [||] (* `Pending | `Fired | `Cancelled *) in
  let armed = Array.make n_timers false and deadline = Array.make n_timers 0. in
  let fire id = log := (id, !clock) :: !log in
  let step () =
    match !queue with
    | [] -> false
    | ((time, _), entry) :: rest ->
        queue := rest;
        clock := time;
        incr count;
        (match entry with
        | Plain id -> fire id
        | Chained (id, id', b) ->
            fire id;
            push (!clock +. b) (Plain id')
        | Guarded (h, id) ->
            if !handles.(h) = `Pending then begin
              !handles.(h) <- `Fired;
              fire id
            end
        | Trampoline i ->
            if armed.(i) && !clock >= deadline.(i) then begin
              armed.(i) <- false;
              fire (-1 - i)
            end);
        true
  in
  let rec run_until until =
    match !queue with
    | ((time, _), _) :: _ when time <= until ->
        ignore (step ());
        run_until until
    | _ -> ()
  in
  List.iter
    (fun op ->
      let stepped =
        match op with
        | At d | Schedule d ->
            push (!clock +. d) (Plain (fresh ()));
            false
        | Chain (a, b) ->
            let id = fresh () in
            let id' = fresh () in
            push (!clock +. a) (Chained (id, id', b));
            false
        | Cancellable d ->
            let h = Array.length !handles in
            handles := Array.append !handles [| `Pending |];
            push (!clock +. d) (Guarded (h, fresh ()));
            false
        | Cancel i ->
            let n = Array.length !handles in
            if n > 0 && !handles.(i mod n) = `Pending then
              !handles.(i mod n) <- `Cancelled;
            false
        | Arm (i, d) ->
            deadline.(i) <- !clock +. d;
            armed.(i) <- true;
            push deadline.(i) (Trampoline i);
            false
        | Disarm i ->
            armed.(i) <- false;
            false
        | Step -> step ()
        | Run_until d ->
            run_until (!clock +. d);
            false
      in
      depths := (List.length !queue, stepped) :: !depths)
    script;
  run_until infinity;
  { log = List.rev !log; depths = List.rev !depths; clock = !clock;
    count = !count }

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine dispatch matches a sorted-list model"
    ~count:500 script_arb (fun script -> run_engine script = run_model script)

(* --- Network --- *)

let test_network_latency_model () =
  let e = Engine.create () in
  let link = Network.link ~base_latency:1e-3 ~byte_time:1e-6 in
  let net = Network.create ~loopback:5e-6 e link in
  let transit ~src ~dst ~bytes =
    let sent = Engine.now e and landed = ref nan in
    Network.send net ~src ~dst ~bytes (fun () -> landed := Engine.now e);
    Engine.run e;
    !landed -. sent
  in
  check (Alcotest.float 1e-12) "base + bytes" (1e-3 +. 1e-3)
    (transit ~src:0 ~dst:1 ~bytes:1000);
  check (Alcotest.float 1e-12) "loopback" 5e-6
    (transit ~src:3 ~dst:3 ~bytes:1_000_000);
  Alcotest.check_raises "negative bytes"
    (Invalid_argument "Network.send: negative size") (fun () ->
      Network.send net ~src:0 ~dst:1 ~bytes:(-1) ignore)

let test_network_counters () =
  let e = Engine.create () in
  let net = Network.create e Network.gigabit in
  let delivered = ref 0 in
  Network.send net ~src:0 ~dst:1 ~bytes:100 (fun () -> incr delivered);
  Network.send net ~src:2 ~dst:2 ~bytes:50 (fun () -> incr delivered);
  Engine.run e;
  check Alcotest.int "both delivered" 2 !delivered;
  check Alcotest.int "one remote message" 1 (Network.messages net);
  check Alcotest.int "remote bytes" 100 (Network.bytes_sent net);
  check Alcotest.int "one local delivery" 1 (Network.local_deliveries net);
  Network.reset_counters net;
  check Alcotest.int "reset" 0 (Network.messages net)

let test_network_delivery_order () =
  let e = Engine.create () in
  let link = Network.link ~base_latency:0. ~byte_time:1e-6 in
  let net = Network.create e link in
  let log = ref [] in
  (* Bigger message sent first arrives later. *)
  Network.send net ~src:0 ~dst:1 ~bytes:1000 (fun () -> log := "big" :: !log);
  Network.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> log := "small" :: !log);
  Engine.run e;
  check Alcotest.(list string) "size-dependent order" [ "small"; "big" ]
    (List.rev !log)

let test_link_validation () =
  Alcotest.check_raises "negative latency" (Invalid_argument "Network.link: negative parameter")
    (fun () -> ignore (Network.link ~base_latency:(-1.) ~byte_time:0.))

(* --- Cancellable timers --- *)

let test_engine_cancellable () =
  let e = Engine.create () in
  let fired = ref [] in
  let h1 = Engine.schedule_cancellable e ~delay:1. (fun () -> fired := 1 :: !fired) in
  let h2 = Engine.schedule_cancellable e ~delay:2. (fun () -> fired := 2 :: !fired) in
  Engine.cancel h2;
  (* Lazy deletion: the queue entry stays and is dispatched as a no-op. *)
  check Alcotest.int "entries remain" 2 (Engine.pending e);
  Engine.run e;
  check Alcotest.(list int) "only h1 fired" [ 1 ] (List.rev !fired);
  check (Alcotest.float 0.) "clock crossed the cancelled slot" 2. (Engine.now e);
  (* Cancelling after firing (or twice) is a no-op. *)
  Engine.cancel h1;
  Engine.cancel h2

(* --- Fault plan --- *)

let test_fault_validation () =
  Alcotest.check_raises "drop out of range"
    (Invalid_argument "Fault.drop: probability outside [0, 1]") (fun () ->
      ignore (Fault.create ~drop:1.5 ~seed:1 ()));
  Alcotest.check_raises "negative jitter"
    (Invalid_argument "Fault.jitter: negative or non-finite") (fun () ->
      ignore (Fault.create ~jitter:(-1.) ~seed:1 ()));
  Alcotest.check_raises "bad crash window"
    (Invalid_argument "Fault.create: crash plan needs 0 <= at < back_at")
    (fun () -> ignore (Fault.create ~crashes:[ (0, 2., 1.) ] ~seed:1 ()))

let test_fault_drop_and_duplicate_rates () =
  (* Deterministic given the seed; rates roughly honoured over many rolls. *)
  let f = Fault.create ~drop:0.2 ~duplicate:0.1 ~seed:7 () in
  for _ = 1 to 1000 do
    ignore (Fault.cut f);
    ignore (Fault.duplicate f)
  done;
  let d = Fault.drops f and dup = Fault.duplicates f in
  check Alcotest.bool "drops near 200" true (d > 120 && d < 280);
  check Alcotest.bool "dups near 100" true (dup > 50 && dup < 150);
  let f' = Fault.create ~drop:0.2 ~duplicate:0.1 ~seed:7 () in
  for _ = 1 to 1000 do
    ignore (Fault.cut f');
    ignore (Fault.duplicate f')
  done;
  check Alcotest.int "same seed, same drops" d (Fault.drops f');
  Fault.set_drop f 0.;
  Fault.set_duplicate f 0.;
  for _ = 1 to 100 do
    ignore (Fault.cut f);
    ignore (Fault.duplicate f)
  done;
  check Alcotest.int "faults ceased: drops frozen" d (Fault.drops f);
  check Alcotest.int "faults ceased: dups frozen" dup (Fault.duplicates f)

let test_fault_down () =
  let f = Fault.create ~seed:3 () in
  check Alcotest.bool "no cut without a drop rate" false (Fault.cut f);
  Fault.set_down f 4;
  check Alcotest.bool "absorbed" true (Fault.absorb f ~dst:4);
  check Alcotest.bool "others unaffected" false (Fault.absorb f ~dst:5);
  Fault.set_up f 4;
  check Alcotest.bool "back up" false (Fault.absorb f ~dst:4)

let test_fault_jitter_bounds () =
  let f = Fault.create ~jitter:1e-3 ~seed:11 () in
  for _ = 1 to 500 do
    let d = Fault.delay_noise f in
    if d < 0. || d >= 1e-3 then Alcotest.fail "jitter outside [0, 1e-3)"
  done;
  Fault.set_jitter f 0.;
  check (Alcotest.float 0.) "no jitter" 0. (Fault.delay_noise f)

let test_network_applies_faults () =
  let e = Engine.create () in
  (* drop = 1: every remote send vanishes, loopback is exempt. *)
  let f = Fault.create ~drop:1. ~seed:5 () in
  let net = Network.create ~faults:f e Network.gigabit in
  let delivered = ref 0 in
  Network.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Network.send net ~src:2 ~dst:2 ~bytes:10 (fun () -> incr delivered);
  Engine.run e;
  check Alcotest.int "only loopback arrives" 1 !delivered;
  check Alcotest.int "drop counted" 1 (Fault.drops f);
  check Alcotest.int "send still counted" 1 (Network.messages net);
  (* duplicate = 1: every remote send arrives twice. *)
  Fault.set_drop f 0.;
  Fault.set_duplicate f 1.;
  delivered := 0;
  Network.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Engine.run e;
  check Alcotest.int "delivered twice" 2 !delivered;
  check Alcotest.int "duplicate counted" 1 (Fault.duplicates f);
  (* Down destination absorbs at delivery time. *)
  Fault.set_duplicate f 0.;
  Fault.set_down f 1;
  delivered := 0;
  Network.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Engine.run e;
  check Alcotest.int "absorbed by down node" 0 !delivered;
  Fault.set_up f 1;
  Network.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Engine.run e;
  check Alcotest.int "delivered after restart" 1 !delivered

let test_fault_crash_overlap () =
  Alcotest.check_raises "overlapping windows, same snode"
    (Invalid_argument
       "Fault.create: overlapping crash windows for snode 0 ([1, 2) and [1.5, \
        3))") (fun () ->
      ignore (Fault.create ~crashes:[ (0, 1., 2.); (0, 1.5, 3.) ] ~seed:1 ()));
  Alcotest.check_raises "duplicate window"
    (Invalid_argument
       "Fault.create: overlapping crash windows for snode 2 ([1, 2) and [1, \
        2))") (fun () ->
      ignore (Fault.create ~crashes:[ (2, 1., 2.); (2, 1., 2.) ] ~seed:1 ()));
  (* Half-open windows: one may start exactly where another ends. *)
  let f = Fault.create ~crashes:[ (0, 1., 2.); (0, 2., 3.) ] ~seed:1 () in
  check Alcotest.int "back-to-back windows accepted" 2
    (List.length (Fault.crash_plan f));
  (* Same instants on different snodes never conflict. *)
  let f = Fault.create ~crashes:[ (0, 1., 2.); (1, 1., 2.) ] ~seed:1 () in
  check Alcotest.int "distinct snodes accepted" 2
    (List.length (Fault.crash_plan f));
  Alcotest.check_raises "negative snode"
    (Invalid_argument "Fault.create: negative snode in crash plan") (fun () ->
      ignore (Fault.create ~crashes:[ (-1, 1., 2.) ] ~seed:1 ()))

let test_fault_slow () =
  let f = Fault.create ~seed:17 () in
  check (Alcotest.float 0.) "default factor" 1. (Fault.slow_factor f ~dst:3);
  Fault.set_slow f 3 10.;
  check (Alcotest.float 0.) "factor set" 10. (Fault.slow_factor f ~dst:3);
  check (Alcotest.float 0.) "others unaffected" 1. (Fault.slow_factor f ~dst:4);
  Fault.clear_slow f 3;
  check (Alcotest.float 0.) "cleared" 1. (Fault.slow_factor f ~dst:3);
  Alcotest.check_raises "factor below one"
    (Invalid_argument "Fault.set_slow: factor must be finite and >= 1")
    (fun () -> Fault.set_slow f 3 0.5);
  Alcotest.check_raises "negative snode"
    (Invalid_argument "Fault.set_slow: negative snode") (fun () ->
      Fault.set_slow f (-1) 2.)

let test_network_slow_destination () =
  let e = Engine.create () in
  let f = Fault.create ~seed:21 () in
  let link = Network.link ~base_latency:1e-3 ~byte_time:0. in
  let net = Network.create ~faults:f e link in
  Fault.set_slow f 1 10.;
  let arrived = ref nan in
  Network.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> arrived := Engine.now e);
  Engine.run e;
  check (Alcotest.float 1e-12) "delivery stretched by the factor" 1e-2 !arrived;
  (* A healthy destination still sees the nominal link delay. *)
  let arrived' = ref nan in
  Network.send net ~src:0 ~dst:2 ~bytes:10 (fun () -> arrived' := Engine.now e);
  Engine.run e;
  check (Alcotest.float 1e-12) "healthy peer at nominal latency" (1e-2 +. 1e-3)
    !arrived';
  Fault.clear_slow f 1;
  let arrived'' = ref nan in
  Network.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> arrived'' := Engine.now e);
  Engine.run e;
  check (Alcotest.float 1e-12) "back to nominal after clear"
    (1e-2 +. 1e-3 +. 1e-3) !arrived''

let test_network_ingress_bound () =
  let e = Engine.create () in
  let net = Network.create e Network.gigabit in
  Alcotest.check_raises "negative limit"
    (Invalid_argument "Network.set_ingress_limit: negative limit") (fun () ->
      Network.set_ingress_limit net (-1));
  Network.set_ingress_limit net 2;
  let delivered = ref 0 in
  for _ = 1 to 4 do
    Network.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered)
  done;
  (* Two deliveries occupy the queue; the other two were dropped at the
     door before any delivery was scheduled. *)
  check Alcotest.int "queue at the bound" 2
    (Network.max_ingress_high_water net);
  check Alcotest.int "two refused" 2 (Network.ingress_overflows net);
  (* Loopback is exempt from the bound even when the queue is full. *)
  Network.send net ~src:1 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Engine.run e;
  check Alcotest.int "admitted plus loopback land" 3 !delivered;
  check Alcotest.int "high water at the bound" 2
    (Network.max_ingress_high_water net);
  (* reset_counters rebases high-water marks to the depth, which is zero
     once the queue has drained. *)
  Network.reset_counters net;
  check Alcotest.int "queue drained, high water rebased" 0
    (Network.max_ingress_high_water net);
  check Alcotest.int "overflows zeroed" 0 (Network.ingress_overflows net);
  (* Limit 0 restores the historical unbounded behaviour. *)
  Network.set_ingress_limit net 0;
  delivered := 0;
  for _ = 1 to 8 do
    Network.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered)
  done;
  Engine.run e;
  check Alcotest.int "unbounded again" 8 !delivered;
  check Alcotest.int "no overflows when unbounded" 0
    (Network.ingress_overflows net)

(* Pins [Network.send]'s random draws under a bounded ingress: the drop roll,
   then per admitted delivery its jitter, then the duplicate roll; a
   delivery refused at the door draws no jitter. The delivery times, the
   overflow count and the drop count below were recorded from the original
   closure-per-stage implementation and must not move. *)
let test_network_rng_draw_order () =
  let e = Engine.create () in
  let f = Fault.create ~drop:0.15 ~duplicate:0.4 ~jitter:2e-4 ~seed:2004 () in
  let link = Network.link ~base_latency:1e-4 ~byte_time:1e-7 in
  let net = Network.create ~faults:f e link in
  Network.set_ingress_limit net 3;
  Fault.set_slow f 2 4.;
  let log = ref [] in
  let send i =
    Network.send net ~src:0 ~dst:(1 + (i mod 2)) ~bytes:(10 * i) (fun () ->
        log := (i, Engine.now e) :: !log)
  in
  for i = 0 to 11 do
    send i
  done;
  Engine.schedule e ~delay:5e-4 (fun () ->
      for i = 12 to 23 do
        send i
      done);
  Engine.run e;
  (* The same plan with the ingress unbounded again. *)
  Network.set_ingress_limit net 0;
  for i = 24 to 29 do
    send i
  done;
  Engine.run e;
  check
    Alcotest.(list (pair int (float 0.)))
    "seeded deliveries"
    [
      (2, 0x1.e9931f5ad6a9ep-14);
      (2, 0x1.f6cb5710b917ep-13);
      (0, 0x1.1fa808109f345p-12);
      (3, 0x1.1506ac58459b6p-11);
      (9, 0x1.1c1e157d9b173p-11);
      (7, 0x1.448f99f42add8p-11);
      (14, 0x1.47fd1551f1898p-11);
      (12, 0x1.7bf8dbfae764p-11);
      (12, 0x1.9d2cd9728b214p-11);
      (26, 0x1.1b5ee060ee21cp-10);
      (24, 0x1.207edf034bd2cp-10);
      (27, 0x1.be228cdaba341p-10);
      (25, 0x1.dee4d1953ff08p-10);
      (29, 0x1.0278676420e84p-9);
      (25, 0x1.0620abfb1274ep-9);
    ]
    (List.rev !log);
  check Alcotest.int "overflows" 19 (Network.ingress_overflows net);
  check Alcotest.int "drops" 7 (Fault.drops f);
  check Alcotest.int "duplicates" 11 (Fault.duplicates f)

let suite =
  [
    Alcotest.test_case "heap orders random input" `Quick
      test_heap_orders_random_input;
    Alcotest.test_case "heap FIFO at equal times" `Quick
      test_heap_fifo_at_equal_times;
    Alcotest.test_case "heap peek" `Quick test_heap_peek;
    Alcotest.test_case "heap drops popped payloads" `Quick
      test_heap_popped_payload_unreachable;
    Alcotest.test_case "engine dispatch order" `Quick test_engine_dispatch_order;
    Alcotest.test_case "engine nested scheduling" `Quick
      test_engine_nested_scheduling;
    Alcotest.test_case "engine validation" `Quick test_engine_validation;
    Alcotest.test_case "engine run until" `Quick test_engine_run_until;
    Alcotest.test_case "engine horizon" `Quick test_engine_horizon;
    Alcotest.test_case "engine step on empty" `Quick test_engine_step_empty;
    Alcotest.test_case "network latency model" `Quick test_network_latency_model;
    Alcotest.test_case "network counters" `Quick test_network_counters;
    Alcotest.test_case "network delivery order" `Quick
      test_network_delivery_order;
    Alcotest.test_case "link validation" `Quick test_link_validation;
    Alcotest.test_case "engine cancellable timers" `Quick
      test_engine_cancellable;
    Alcotest.test_case "fault validation" `Quick test_fault_validation;
    Alcotest.test_case "fault drop/duplicate rates" `Quick
      test_fault_drop_and_duplicate_rates;
    Alcotest.test_case "fault down-set" `Quick test_fault_down;
    Alcotest.test_case "fault jitter bounds" `Quick test_fault_jitter_bounds;
    Alcotest.test_case "network applies faults" `Quick
      test_network_applies_faults;
    Alcotest.test_case "fault crash-window overlap" `Quick
      test_fault_crash_overlap;
    Alcotest.test_case "fault slow (gray failure) table" `Quick test_fault_slow;
    Alcotest.test_case "network slow destination" `Quick
      test_network_slow_destination;
    Alcotest.test_case "network bounded ingress" `Quick
      test_network_ingress_bound;
    Alcotest.test_case "network RNG draw order" `Quick
      test_network_rng_draw_order;
    QCheck_alcotest.to_alcotest prop_engine_matches_model;
  ]
