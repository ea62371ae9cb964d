(* The hot path's golden values and allocation budgets, and the words a
   drained runtime retains per held cell and per idle peer.

   Golden values pin the PRNG streams and key hashes bit for bit, so a
   change to how their state is stored cannot move a seeded trace.

   Budgets are [Gc.minor_words] deltas over [calls] calls, measured in the
   test build. That build compiles every module opaquely (no
   cross-module inlining), so a float or [int64] that crosses a module
   boundary is boxed there; where that is the only allocation left, the
   budget names it. An optimised build inlines those boundaries away. *)

module Rng = Dht_prng.Rng
module Hash = Dht_hashes.Hash
module Space = Dht_hashspace.Space
module Span = Dht_hashspace.Span
module Point_map = Dht_hashspace.Point_map
module Engine = Dht_event_sim.Engine
module Heat = Dht_obsv.Heat
module Merkle = Dht_merkle.Merkle
module Route = Dht_snode.Route
module Transport = Dht_snode.Transport
module Wire = Dht_snode.Wire
module Network = Dht_event_sim.Network
module Fault = Dht_event_sim.Fault
module Runtime = Dht_snode.Runtime

let check = Alcotest.check

(* ---------------- golden values ---------------- *)

let of_int_2004 =
  [ 0x54cf70d6692bfaa3L; 0xdf249dd84a5756d0L; 0xdc3456ab9c895a41L;
    0x0b33d29af427e16eL; 0xd3ec2f00c931438eL; 0xb0523fbaff364aa8L;
    0x2123d6cf52074727L; 0x12d8a9c8a3000b2aL ]

(* The child of [split] taken after those eight draws. *)
let split_child =
  [ 0xf2d181b350faf5b4L; 0x8eb55cf8a9ae232bL; 0xfa1182b5736753c3L;
    0x09a6455107aa560bL; 0x8154523ce670ac2eL; 0xc881fff0c072e5bbL;
    0x4fc20da9491a6daeL; 0xd59c6e9aa997b85bL ]

let draws n f = List.init n (fun _ -> f ())

let test_rng_golden () =
  let r = Rng.of_int 2004 in
  check Alcotest.(list int64) "of_int 2004" of_int_2004
    (draws 8 (fun () -> Rng.bits64 r));
  let c = Rng.split r in
  check Alcotest.(list int64) "split child" split_child
    (draws 8 (fun () -> Rng.bits64 c));
  let r = Rng.of_int 2004 in
  check Alcotest.(list int) "int 1000"
    [ 659; 240; 905; 614; 46; 800; 863; 954 ]
    (draws 8 (fun () -> Rng.int r 1000));
  let r = Rng.of_int 2004 in
  check Alcotest.(list (float 0.)) "float"
    [ 0x1.533dc359a4afep-2; 0x1.be493bb094aeap-1; 0x1.b868ad573912bp-1;
      0x1.667a535e84fcp-5; 0x1.a7d85e0192628p-1; 0x1.60a47f75fe6c9p-1;
      0x1.091eb67a903ap-3; 0x1.2d8a9c8a30008p-4 ]
    (draws 8 (fun () -> Rng.float r));
  check Alcotest.string "pp"
    "xoshiro256++{e444882330d297fc;ef9fd2917b51a4c8;a122c922bce42686;\
     ce80c6bde4fece74}"
    (Format.asprintf "%a" Rng.pp (Rng.of_int 2004))

let test_hash_golden () =
  List.iter
    (fun (key, fnv, point) ->
      check Alcotest.int64 ("fnv1a64 " ^ key) fnv (Hash.fnv1a64 key);
      check Alcotest.int ("string " ^ key) point
        (Hash.string Space.default key))
    [
      ("", 0xcbf29ce484222325L, 4218834538703250);
      ("a", 0xaf63dc4c8601ec8cL, 2298162199567340);
      ("key-0", 0x71135bf295f28059L, 423551102557622);
      ("pop-12345", 0x98f9d5e8a56d8f26L, 499708666527622);
      ("the quick brown fox", 0x59aeb7b40bd8c122L, 507312896241241);
    ]

(* ---------------- allocation budgets ---------------- *)

let calls = 10_000

(* [Gc.minor_words] reads and the loop scaffolding cost a few words per
   measurement, never per call. *)
let slack = 64.

let within what ~budget w0 w1 =
  let words = w1 -. w0 in
  if words > (budget *. float_of_int calls) +. slack then
    Alcotest.failf "%s: %.0f words over %d calls (budget %g per call)" what
      words calls budget

let test_rng_budget () =
  let r = Rng.of_int 2004 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Rng.bool r)
  done;
  let w1 = Gc.minor_words () in
  within "Rng.bool (one xoshiro256++ step)" ~budget:0. w0 w1;
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Rng.bits64 r)
  done;
  let w1 = Gc.minor_words () in
  (* Only the boxed [int64] result, where [bits64] is not inlined. *)
  within "Rng.bits64" ~budget:3. w0 w1;
  let w0 = Gc.minor_words () in
  for i = 1 to calls do
    ignore (Rng.int r (1 + i))
  done;
  let w1 = Gc.minor_words () in
  within "Rng.int" ~budget:0. w0 w1

let test_hash_budget () =
  let keys = Array.init 16 (fun i -> Printf.sprintf "pop-%d" (i * 7919)) in
  let w0 = Gc.minor_words () in
  for i = 1 to calls do
    ignore (Hash.string Space.default keys.(i land 15))
  done;
  let w1 = Gc.minor_words () in
  within "Hash.string" ~budget:0. w0 w1

let test_heat_budget () =
  let c = Heat.cell ~tau:1.0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    Heat.charge c ~now:2.5 ()
  done;
  let w1 = Gc.minor_words () in
  within "Heat.charge" ~budget:0. w0 w1;
  check Alcotest.int "count stays exact" calls (Heat.count c)

let test_merkle_overwrite_budget () =
  let space = Space.default in
  let n = 500 in
  let keys = Array.init n (Printf.sprintf "key-%d") in
  let points = Array.map (Hash.string space) keys in
  let t = Merkle.create ~leaf_cap:4 ~space ~span:Span.root () in
  Array.iteri
    (fun i key -> Merkle.insert t ~key ~point:points.(i) ~digest:i ())
    keys;
  let w0 = Gc.minor_words () in
  for i = 1 to calls do
    let k = i mod n in
    Merkle.insert t ~key:keys.(k) ~point:points.(k) ~digest:(n + i) ()
  done;
  let w1 = Gc.minor_words () in
  (* The new entry record: four fields and a header. *)
  within "Merkle.insert overwrite on an owned path" ~budget:5. w0 w1;
  check Alcotest.(list string) "tree still consistent" [] (Merkle.check t);
  (* After a snapshot the same overwrites copy the shared path again. *)
  let snap = Merkle.snapshot t in
  let w0 = Gc.minor_words () in
  Merkle.insert t ~key:keys.(0) ~point:points.(0) ~digest:(-1) ();
  let w1 = Gc.minor_words () in
  if w1 -. w0 <= 5. then
    Alcotest.failf "overwrite after a snapshot allocated only %.0f words"
      (w1 -. w0);
  check Alcotest.bool "snapshot kept the old digest" false
    (Merkle.digest snap = Merkle.digest t)

(* A bounded cache hit re-stamps its span by the span's int code, built
   from the point and the hit's depth: no [Span.t], no boxed key. Snode 0
   of two learns a depth-4 span (at least the finger level of 1), so
   every probe into it is a hit on an already-stamped span. *)
let test_route_hit_budget () =
  let space = Space.default in
  let first = Dht_core.Vnode_id.make ~snode:0 ~vnode:0 in
  let bootstrap =
    (List.init 2 (fun index -> Span.make space ~level:1 ~index), first)
  in
  let r =
    Route.create ~space ~pmin:2 ~snodes:2 ~route_cap:8 ~max_hops:4 ~bootstrap
  in
  let fine = Span.make space ~level:4 ~index:5 in
  Route.learn r 0 fine (Dht_core.Vnode_id.make ~snode:1 ~vnode:0);
  let point = Span.start space fine + 12345 in
  ignore (Route.next_hop r ~sid:0 ~hops:0 point);
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Route.next_hop r ~sid:0 ~hops:0 point)
  done;
  let w1 = Gc.minor_words () in
  within "Route.next_hop bounded hit" ~budget:0. w0 w1;
  check Alcotest.int "every probe a hit" (calls + 1)
    (Route.stats r).Route.rcs_hits;
  check Alcotest.bool "the hit re-stamped its span" true
    (Route.stamp r 0 fine > Route.stamp r 0 (Span.make space ~level:1 ~index:1))

(* Learning a fine span under a coarse leaf decomposes the leaf along the
   dyadic path: one fork per level crossed and the fine span's own leaf;
   the fragments share the coarse leaf, so they cost nothing. Learning the
   coarse span back collapses the path into one new leaf. A learn that
   keeps a span's owner allocates nothing. *)
let test_learn_budget () =
  let space = Space.default in
  let m = Point_map.create space in
  let coarse = Span.make space ~level:1 ~index:0 in
  let fine = Span.make space ~level:9 ~index:5 in
  Point_map.add m coarse 0;
  Point_map.add m (Span.make space ~level:1 ~index:1) 0;
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    Point_map.learn m fine 1;
    Point_map.learn m coarse 0
  done;
  let w1 = Gc.minor_words () in
  (* Eight 3-word forks and two 2-word leaves. A leaf per fragment would
     add eight more: 42 words. *)
  within "Point_map.learn under a coarse leaf, and back" ~budget:28. w0 w1;
  check Alcotest.int "two spans again" 2 (Point_map.cardinal m);
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    Point_map.learn m coarse 0
  done;
  let w1 = Gc.minor_words () in
  within "Point_map.learn keeping the owner" ~budget:0. w0 w1;
  check Alcotest.(list int) "owners" [ 0; 0 ]
    (List.map snd (Point_map.to_list m))

(* A reliable frame from send to retire: snode 0 sends bursts of payloads
   to snode 1 over a fault plan that loses nothing, and the engine runs
   until every ack is in and every cleared retransmission deadline has
   dispatched. After the first burst, every round reuses the pooled queue
   record, the spare outbox and the grown event heap, so what is measured
   is the frame's own cost at both ends: its outbox entry with its
   retransmission state, the frame and the ack, and the network's delivery
   closures. *)
let test_frame_budget () =
  let engine = Engine.create () in
  let net =
    Network.create ~faults:(Fault.create ~seed:1 ()) engine Network.gigabit
  in
  let tr =
    Transport.create engine net ~rngs:(Array.init 2 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0 ~linger:0.
      ~metrics:None ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst:_ ~from:_ _ -> ())
  in
  let msg = Wire.Busy { token = 0 } in
  let burst = 8 in
  let round () =
    for _ = 1 to burst do
      Transport.send tr ~src:0 ~dst:1 msg
    done;
    Engine.run engine
  in
  round ();
  let w0 = Gc.minor_words () in
  for _ = 1 to calls / burst do
    round ()
  done;
  let w1 = Gc.minor_words () in
  (* 95 words, of which the outbox entry, its flat stamps record, the
     closure made with it and the frame it sends, made once with the entry,
     are 23. A separate timer record per entry, with its deadline,
     trampoline and option box, and a boxed send time per transmission
     read 104. *)
  within "reliable frame, send to retire" ~budget:95. w0 w1;
  check Alcotest.int "no retransmission" 0
    (Transport.counters tr).Transport.retransmits;
  check Alcotest.(list string) "queues sound" [] (Transport.audit tr)

(* A retransmission: snode 0 sends one frame to snode 1, crash-stopped
   for good, so the frame retransmits at the backed-off and then capped
   cadence forever and every copy is absorbed. After the first few
   attempts, each one pays the network's delivery closure and the boxed
   floats of its backoff, and re-sends the frame and re-pushes the closure
   its entry made with it. *)
let test_retransmit_budget () =
  let engine = Engine.create () in
  let net =
    Network.create ~faults:(Fault.create ~seed:1 ()) engine Network.gigabit
  in
  let tr =
    Transport.create engine net ~rngs:(Array.init 2 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0 ~linger:0.
      ~metrics:None ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst:_ ~from:_ _ -> ())
  in
  Transport.crash tr 1;
  Transport.send tr ~src:0 ~dst:1 (Wire.Busy { token = 0 });
  let retransmits () = (Transport.counters tr).Transport.retransmits in
  while retransmits () < 10 && Engine.step engine do
    ()
  done;
  let r0 = retransmits () in
  let w0 = Gc.minor_words () in
  while retransmits () < r0 + calls && Engine.step engine do
    ()
  done;
  let w1 = Gc.minor_words () in
  check Alcotest.int "every measured attempt retransmitted" (r0 + calls)
    (retransmits ());
  (* 40 words. A fresh closure per arming would add its 10, a fresh frame
     per attempt its 4. *)
  within "retransmission of an absorbed frame" ~budget:40. w0 w1;
  check Alcotest.int "still outstanding" 1 (Transport.queue_depth tr 0);
  check Alcotest.(list string) "queues sound" [] (Transport.audit tr)

(* Staging toward a destination whose buffer went back to the free list
   takes a pooled buffer again: snode 0 stages one part toward each of
   [dsts] other snodes, the flushes return every buffer, and each later
   round re-stages the same destinations. Only the stage itself is
   measured. *)
let test_restage_budget () =
  let dsts = 100 in
  let engine = Engine.create () in
  let net = Network.create engine Network.gigabit in
  let tr =
    Transport.create engine net ~rngs:(Array.init (dsts + 1) Rng.of_int)
      ~rto:1e-3 ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0
      ~linger:Network.gigabit.Network.base_latency ~metrics:None
      ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst:_ ~from:_ _ -> ())
  in
  let msg = Wire.Busy { token = 0 } in
  let round () =
    for dst = 1 to dsts do
      Transport.send tr ~src:0 ~dst msg
    done
  in
  round ();
  Engine.run engine;
  let words = ref 0. in
  for _ = 1 to calls / dsts do
    let w0 = Gc.minor_words () in
    round ();
    let w1 = Gc.minor_words () in
    words := !words +. (w1 -. w0);
    Engine.run engine
  done;
  (* The staged part's cons cell, and the deadline boxed for the call into
     [Heap.push] where that is not inlined. A fresh buffer would add its
     record, deadline and closure. *)
  within "Transport.send re-staging a pooled buffer" ~budget:5. 0. !words;
  check Alcotest.(list string) "pool sound" [] (Transport.audit tr)

(* A relayed forward against the standalone ack it replaces: snode 0 sends
   a routed op to snode 1, which forwards it to snode 2, which answers
   snode 0 from inside its delivery, over a fault plan that loses nothing
   and a coalescing window. A get is relayed (snode 1's ack to snode 0
   rides the forward and the reply), a creation is not (the ack leaves on
   its own); everything else about the two walks is the same. Each walk
   runs to quiescence, after one warm-up walk of each kind, and the
   relayed walk, one envelope shorter, must cost no more words than the
   unrelayed one. *)
let walk_words op =
  let engine = Engine.create () in
  let net =
    Network.create ~faults:(Fault.create ~seed:1 ()) engine Network.gigabit
  in
  let self = ref None in
  let reply = Wire.Get_reply { token = 0; value = None; hint = None } in
  let forward = Wire.Routed { point = 0; hops = 1; retries = 0; origin = 0; op } in
  let tr =
    Transport.create engine net ~rngs:(Array.init 3 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0
      ~linger:Network.gigabit.Network.base_latency ~metrics:None
      ~trace:Dht_telemetry.Trace.noop ~xmit:None
      ~deliver:(fun ~dst ~from:_ msg ->
        let tr = Option.get !self in
        match (dst, msg) with
        | 1, Wire.Routed _ -> Transport.send tr ~src:1 ~dst:2 forward
        | 2, Wire.Routed _ -> Transport.send tr ~src:2 ~dst:0 reply
        | _ -> ())
  in
  self := Some tr;
  let walk = Wire.Routed { point = 0; hops = 0; retries = 0; origin = 0; op } in
  let once () =
    Transport.send tr ~src:0 ~dst:1 walk;
    Engine.run engine
  in
  once ();
  let m0 = Network.messages net in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    once ()
  done;
  let w1 = Gc.minor_words () in
  check Alcotest.int "no retransmission" 0
    (Transport.counters tr).Transport.retransmits;
  check Alcotest.(list string) "queues sound" [] (Transport.audit tr);
  ((w1 -. w0) /. float_of_int calls, (Network.messages net - m0) / calls)

let test_relay_budget () =
  let relayed, five = walk_words (Wire.Op_get { key = "k"; token = 0 }) in
  let alone, six =
    walk_words (Wire.Op_create { newcomer = Dht_core.Vnode_id.make ~snode:0 ~vnode:1 })
  in
  check Alcotest.(pair int int) "envelopes per walk" (5, 6) (five, six);
  if relayed > alone then
    Alcotest.failf "a relayed walk costs %.1f words, one with its ack alone %.1f"
      relayed alone

(* ---------------- retained-memory budgets ---------------- *)

(* Budgets on what a drained runtime keeps, counted two ways: as
   [Obj.reachable_words] deltas of the runtime, and as deltas of the
   process's live words after a full major collection. No recorder is
   attached, so every word reachable from the runtime is its own; the live
   count also sees what a module keeps outside it (a global table or list
   that every message passes through). The heap graph follows from the
   seed alone, so each delta is measured on two fresh runtimes and must
   repeat exactly. *)
let retained rt = Obj.reachable_words (Obj.repr rt)

let live () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* The two deltas of [grow rt], measured on a runtime [make] returns. *)
let deltas make grow () =
  let rt = make () in
  let r0 = retained rt and l0 = live () in
  grow rt;
  let r = retained rt - r0 in
  let l = live () - l0 in
  ignore (Sys.opaque_identity rt);
  (r, l)

let twice what measure =
  let ((r, l) as a) = measure () and ((r', l') as b) = measure () in
  if a <> b then
    Alcotest.failf
      "%s: %d reachable and %d live words, then %d and %d on a second runtime"
      what r l r' l';
  a

let within_retained what ~budget ~per words =
  if float_of_int words > budget *. float_of_int per then
    Alcotest.failf "%s: %d words for %d (budget %g each)" what words per budget

(* Snode 0 holds the only vnode of a one-copy cluster; [n] puts of new
   keys each add one held cell there. *)
let test_cell_retained () =
  let n = 2_000 in
  let put rt lo =
    for i = lo to lo + n - 1 do
      Runtime.put rt ~key:(Printf.sprintf "key-%d" i) ~value:(Printf.sprintf "v%d" i) ()
    done;
    Runtime.run rt
  in
  let words, live_words =
    twice "held cells"
      (deltas
         (fun () ->
           let rt = Runtime.create ~snodes:4 ~seed:2004 () in
           put rt 0;
           rt)
         (fun rt -> put rt n))
  in
  (* 20.5 words: the key and value strings, the versioned cell with its
     version record, the cell's slot and table entry, and the table's
     growth amortised over the cells. A slot that kept a second cell
     would read 26.5. *)
  within_retained "retained per held cell" ~budget:21. ~per:n words;
  within_retained "live per held cell" ~budget:21. ~per:n live_words

(* Snodes read one key held by snode 0 through the reliable transport,
   which leaves a drained peer record at both ends of each route. A first
   round from half of them sizes snode 0's tables; the second round, from
   the other half, opens as many new routes. With a linger window, each
   end also stages toward the other, so it takes a pooled coalescing
   buffer while the parts wait. Returns the reachable and live deltas per
   new peer. *)
let idle_peers what ~linger =
  let half = 32 in
  let round rt lo =
    for via = lo to lo + half - 1 do
      Runtime.get rt ~via ~key:"k" ignore
    done;
    Runtime.run rt
  in
  let words, live_words =
    twice what
      (deltas
         (fun () ->
           let rt =
             Runtime.create ~faults:(Runtime.Fault.create ~seed:2004 ())
               ~linger ~snodes:((2 * half) + 1) ~seed:2004 ()
           in
           Runtime.put rt ~key:"k" ~value:"v" ();
           round rt 1;
           rt)
         (fun rt ->
           round rt (half + 1);
           check Alcotest.(list string) "queues sound" []
             (Runtime.queue_audit rt)))
  in
  (words, live_words, 2 * half)

let test_idle_peer_retained () =
  let words, live_words, per = idle_peers "idle peers" ~linger:0. in
  (* 25.25 words: a peer record and its table entry at each end of a new
     route, plus what the new snode's first traffic leaves behind (its
     endpoint's pooled queue record and spare outbox among it), shared
     out over the route's two peers. A peer that kept its last acked
     message would read about 60. *)
  within_retained "retained per idle peer" ~budget:26. ~per words;
  within_retained "live per idle peer" ~budget:26. ~per live_words

let test_idle_batching_peer_retained () =
  let words, live_words, per =
    idle_peers "idle batching peers" ~linger:Network.gigabit.Network.base_latency
  in
  (* 35.25 words: an idle peer's 25.25, plus the new snode's pooled
     buffer with its flush timer, shared out over the route's two peers.
     A destination is bound only while it holds a buffer, so an idle one
     keeps no binding; binding it to a shared empty buffer read 39. *)
  within_retained "retained per idle batching peer" ~budget:36. ~per words;
  within_retained "live per idle batching peer" ~budget:36. ~per live_words

let suite =
  [
    Alcotest.test_case "golden: Rng streams" `Quick test_rng_golden;
    Alcotest.test_case "golden: key hashes" `Quick test_hash_golden;
    Alcotest.test_case "budget: Rng draws" `Quick test_rng_budget;
    Alcotest.test_case "budget: Hash.string" `Quick test_hash_budget;
    Alcotest.test_case "budget: Heat.charge" `Quick test_heat_budget;
    Alcotest.test_case "budget: Merkle owned overwrite" `Quick
      test_merkle_overwrite_budget;
    Alcotest.test_case "budget: Route.next_hop stamped hit" `Quick
      test_route_hit_budget;
    Alcotest.test_case "budget: Point_map.learn under a coarse leaf" `Quick
      test_learn_budget;
    Alcotest.test_case "budget: reliable frame, send to retire" `Quick
      test_frame_budget;
    Alcotest.test_case "budget: one retransmission" `Quick
      test_retransmit_budget;
    Alcotest.test_case "budget: re-staging takes a pooled timer" `Quick
      test_restage_budget;
    Alcotest.test_case "budget: a relayed ack costs no more than its envelope"
      `Quick test_relay_budget;
    Alcotest.test_case "retained: words per held cell" `Quick test_cell_retained;
    Alcotest.test_case "retained: words per idle peer" `Quick
      test_idle_peer_retained;
    Alcotest.test_case "retained: words per idle batching peer" `Quick
      test_idle_batching_peer_retained;
  ]
