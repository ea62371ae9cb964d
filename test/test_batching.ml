(* Transmission batching: exact envelope accounting for coalesced frames,
   per-(src, dst) FIFO through any linger window, dedup of Req-framed
   batches under retransmission, and crash recovery of staged parts. *)

module Runtime = Dht_snode.Runtime
module Wire = Dht_snode.Wire
module Engine = Dht_event_sim.Engine
module Network = Dht_event_sim.Network
module Rng = Dht_prng.Rng
module Transport = Dht_snode.Transport

let check = Alcotest.check

let audit_ok rt what =
  match Dht_check.Invariants.(to_strings (check_runtime rt)) with
  | [] -> ()
  | es -> Alcotest.fail (what ^ ":\n" ^ String.concat "\n" es)

(* --- Wire.size_bytes over Batch --- *)

(* The documented size law, stated independently of the implementation:
   one 64-byte envelope for the whole frame, then per part a 16-byte frame
   header plus the part's body with its own envelope amortized away. *)
let envelope = 64
let per_entry = 16

let part_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun t -> Wire.Put_ack { token = t; hint = None }) small_nat;
        map2 (fun s f -> Wire.Ack { seq = s; floor = f }) small_nat small_nat;
        map
          (fun t -> Wire.Get_reply { token = t; value = Some "v"; hint = None })
          small_nat;
        map
          (fun k ->
            Wire.Repl_put
              {
                token = k;
                key = "k" ^ string_of_int k;
                point = k;
                cell = Dht_kv.Versioned.cell ~value:"x" ~ts:1.0 ~origin:0 ();
              })
          small_nat;
      ])

let prop_batch_size_exact =
  QCheck.Test.make ~name:"batch size = envelope + per-part amortized bodies"
    ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 12) part_gen))
    (fun parts ->
      let expected =
        List.fold_left
          (fun acc p -> acc + per_entry + Wire.size_bytes p - envelope)
          envelope parts
      in
      Wire.size_bytes (Wire.Batch parts) = expected)

(* Two parts or more: each part adds 16 bytes of frame header but saves a
   64-byte envelope, so every real coalescing (the runtime sends singleton
   flushes raw, precisely because a 1-part batch would cost 16 bytes) is a
   net win on the wire. *)
let prop_batch_never_larger =
  QCheck.Test.make
    ~name:"coalescing never costs more than sending parts alone" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 2 12) part_gen))
    (fun parts ->
      Wire.size_bytes (Wire.Batch parts)
      <= List.fold_left (fun acc p -> acc + Wire.size_bytes p) 0 parts)

(* --- per-(src, dst) FIFO across random schedules and linger windows --- *)

(* Single-copy mode makes delivery order observable: Op_put is an
   unconditional replace, so the final value of a key IS the last write
   delivered. Fire bursts of same-key puts back to back (same source, same
   owner, one virtual instant) under a random linger window: whatever the
   coalescing does, the last-issued value must win at every key. *)
let prop_fifo_under_linger =
  QCheck.Test.make ~name:"random schedules keep per-(src,dst) FIFO" ~count:25
    QCheck.(pair small_int (QCheck.make QCheck.Gen.(float_bound_inclusive 3e-4)))
    (fun (salt, linger) ->
      let rng = Rng.of_int salt in
      let rt = Runtime.create ~snodes:6 ~seed:(42 + salt) ~linger () in
      let keys = Array.init 8 (fun i -> Printf.sprintf "fifo-%d" i) in
      let last = Hashtbl.create 8 in
      for round = 0 to 19 do
        let key = keys.(Rng.int rng (Array.length keys)) in
        let via = Rng.int rng 6 in
        let burst = 1 + Rng.int rng 4 in
        for b = 0 to burst - 1 do
          let v = Printf.sprintf "%d.%d" round b in
          Hashtbl.replace last key v;
          Runtime.put rt ~via ~key ~value:v ()
        done;
        (* Drain between rounds so cross-via races cannot mask ordering:
           within a round the burst shares one (src, dst) chain. *)
        Runtime.run rt
      done;
      let wrong = ref 0 in
      Hashtbl.iter
        (fun key v ->
          Runtime.get rt ~key (fun got ->
              if got <> Some v then incr wrong))
        last;
      Runtime.run rt;
      if !wrong > 0 then
        QCheck.Test.fail_reportf "%d keys lost their last write (linger %g)"
          !wrong linger;
      audit_ok rt "fifo under linger";
      true)

(* Same schedule, batching on vs off: the observable outcome (every final
   value) must be identical — linger is a transport knob, not semantics. *)
let test_linger_transparent () =
  let final ~linger =
    let rt = Runtime.create ~snodes:5 ~seed:7 ~linger () in
    for i = 0 to 39 do
      Runtime.put rt ~via:(i mod 5)
        ~key:(Printf.sprintf "t%d" (i mod 10))
        ~value:(string_of_int i) ()
    done;
    Runtime.run rt;
    List.init 10 (fun i ->
        let got = ref None in
        Runtime.get rt ~key:(Printf.sprintf "t%d" i) (fun v -> got := v);
        Runtime.run rt;
        !got)
  in
  let unbatched = final ~linger:0. in
  let batched = final ~linger:5e-5 in
  check
    Alcotest.(list (option string))
    "same values either way" unbatched batched

(* --- dedup under retransmission --- *)

let test_dedup_under_retransmission () =
  (* Drops force Req-framed batches to retransmit; duplicates deliver some
     frames twice. The seq/floor dedup must apply each batch exactly once:
     every acked write keeps its value, callbacks fire exactly once, and
     the quorum bookkeeping balances. *)
  let faults = Runtime.Fault.create ~drop:0.15 ~duplicate:0.2 ~seed:77 () in
  let rt =
    Runtime.create ~faults ~rfactor:3 ~read_quorum:2 ~write_quorum:2
      ~snodes:5 ~seed:77 ~linger:5e-5 ()
  in
  let acked = ref 0 in
  for i = 0 to 29 do
    Runtime.put rt ~via:(i mod 5)
      ~on_done:(fun () -> incr acked)
      ~key:(Printf.sprintf "d%d" i) ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  check Alcotest.int "every write acked exactly once" 30 !acked;
  check Alcotest.int "no operation stranded" 0 (Runtime.pending_operations rt);
  let wrong = ref 0 in
  for i = 0 to 29 do
    Runtime.get rt ~via:(i mod 5) ~key:(Printf.sprintf "d%d" i) (fun v ->
        if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  check Alcotest.int "no value lost or duplicated into staleness" 0 !wrong;
  audit_ok rt "dedup under retransmission"

(* --- crash with parts still lingering --- *)

let test_crash_flushes_staged_parts () =
  (* A long linger window keeps parts staged; a crash kills the flush
     timer but not the staged parts. On restart the timer re-arms and the
     writes complete. *)
  let faults = Runtime.Fault.create ~seed:5 () in
  let rt = Runtime.create ~faults ~snodes:4 ~seed:5 ~linger:0.01 () in
  let e = Runtime.engine rt in
  let acked = ref 0 in
  for i = 0 to 4 do
    Runtime.put rt ~via:3
      ~on_done:(fun () -> incr acked)
      ~key:(Printf.sprintf "c%d" i) ~value:(string_of_int i) ()
  done;
  (* Let the puts stage toward their owners but crash before the 10ms
     flush window elapses. *)
  Runtime.run ~until:(Engine.now e +. 0.001) rt;
  Runtime.crash_snode rt 3;
  Runtime.run ~until:(Engine.now e +. 0.05) rt;
  Runtime.restart_snode rt 3;
  Runtime.run rt;
  check Alcotest.int "staged writes survive the crash" 5 !acked;
  let wrong = ref 0 in
  for i = 0 to 4 do
    Runtime.get rt ~via:3 ~key:(Printf.sprintf "c%d" i) (fun v ->
        if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  check Alcotest.int "values readable after recovery" 0 !wrong;
  audit_ok rt "crash with staged parts"

(* --- read repair through coalesced envelopes --- *)

let test_read_repair_through_batching () =
  (* Same stale-rejoin scenario as the unbatched read-repair pin in
     test_replication.ml, but with a linger window: replies arrive inside
     coalesced envelopes and the coordinator must still spot the stale
     replica and push the winner. *)
  let rt =
    Runtime.create ~rfactor:3 ~read_quorum:3 ~write_quorum:2 ~snodes:5
      ~seed:29 ~linger:5e-5 ()
  in
  Runtime.crash_snode rt 2;
  let e = Runtime.engine rt in
  Runtime.put rt ~via:0 ~key:"k" ~value:"fresh" ();
  Runtime.run ~until:(Engine.now e +. 0.2) rt;
  Runtime.restart_snode rt 2;
  let got = ref None in
  Runtime.get rt ~via:0 ~key:"k" (fun v -> got := v);
  Runtime.run rt;
  check Alcotest.(option string) "read returns the winner" (Some "fresh") !got;
  let s = Runtime.repl_stats rt in
  check Alcotest.bool "read repair fired" true (s.Runtime.read_repairs >= 1)

(* --- batching really batches (and the telemetry sees it) --- *)

let test_batching_collapses_fanout () =
  let traffic ~linger =
    let rt =
      Runtime.create ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes:6
        ~seed:11 ~linger ()
    in
    for i = 0 to 63 do
      Runtime.put rt ~via:(i mod 6) ~key:(Printf.sprintf "b%d" i) ~value:"v"
        ()
    done;
    Runtime.run rt;
    let net = Runtime.network rt in
    (Network.messages net, Network.batches net, Network.batched_parts net,
     Network.batch_bytes_saved net)
  in
  let m0, b0, _, _ = traffic ~linger:0. in
  let m1, b1, parts, saved = traffic ~linger:5e-5 in
  check Alcotest.int "linger 0 sends no envelopes" 0 b0;
  check Alcotest.bool "quorum fan-out coalesces (>=2x fewer messages)" true
    (m1 * 2 <= m0);
  check Alcotest.bool "envelopes carry multiple parts" true (b1 > 0 && parts > 2 * b1);
  check Alcotest.bool "envelope bytes saved accounted" true (saved > 0)

(* --- a delivery releases what was staged toward its sender --- *)

(* Without a fault plan nothing is acknowledged. Snode 1 stages a part
   toward snode 0; snode 0's request then lands at snode 1, whose delivery
   answers snode 0 and also sends to snode 2. Once that delivery has run,
   what snode 1 staged toward snode 0 leaves as one envelope, the earlier
   part first, at the delivery's instant. The part toward snode 2 still
   waits its window. *)
let test_delivery_releases_replies () =
  let engine = Engine.create () in
  let net = Network.create engine Network.gigabit in
  let window = 1e-3 in
  let busy token = Wire.Busy { token } in
  let self = ref None and sent = ref [] and got = ref [] and at = ref nan in
  let tr =
    Transport.create engine net ~rngs:(Array.init 3 Rng.of_int) ~rto:1e-3
      ~retry_budget:0 ~adaptive_rto:false ~max_inflight:0 ~linger:window
      ~metrics:None ~trace:Dht_telemetry.Trace.noop
      ~xmit:(Some (fun ~tid ~attempt:_ msg ->
                 sent := (Engine.now engine, tid, msg) :: !sent))
      ~deliver:(fun ~dst ~from:_ msg ->
        got := (dst, msg) :: !got;
        if msg = busy 10 then begin
          at := Engine.now engine;
          let tr = Option.get !self in
          Transport.send tr ~src:1 ~dst:0 (busy 2);
          Transport.send tr ~src:1 ~dst:2 (busy 3)
        end)
  in
  self := Some tr;
  (* The request leaves one window out and lands before snode 1's part
     toward snode 0, staged half a window later, is due. *)
  Transport.send tr ~src:0 ~dst:1 (busy 10);
  Engine.schedule engine ~delay:(window /. 2.) (fun () ->
      Transport.send tr ~src:1 ~dst:0 (busy 1));
  Engine.run engine;
  let from_1 = List.rev (List.filter (fun (_, tid, _) -> tid = 1) !sent) in
  check Alcotest.bool "the request landed before the part was due" true
    (!at < 1.5 *. window);
  (match from_1 with
  | [ (t0, _, m0); (t2, _, m2) ] ->
      check Alcotest.(float 0.) "the answer leaves at the delivery's instant"
        !at t0;
      check Alcotest.bool "one envelope, earlier part first" true
        (m0 = Wire.Batch [ busy 1; busy 2 ]);
      check Alcotest.(float 1e-12) "the part toward a third snode waits"
        (!at +. window) t2;
      check Alcotest.bool "and goes alone" true (m2 = busy 3)
  | l -> Alcotest.failf "snode 1 sent %d envelopes, not 2" (List.length l));
  check Alcotest.bool "snode 0 reads its parts in send order" true
    (List.filter (fun (dst, _) -> dst = 0) (List.rev !got)
    = [ (0, busy 1); (0, busy 2) ]);
  check Alcotest.(list string) "pool sound" [] (Transport.audit tr)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_batch_size_exact;
    QCheck_alcotest.to_alcotest prop_batch_never_larger;
    QCheck_alcotest.to_alcotest prop_fifo_under_linger;
    Alcotest.test_case "linger is semantically transparent" `Quick
      test_linger_transparent;
    Alcotest.test_case "dedup under retransmission" `Quick
      test_dedup_under_retransmission;
    Alcotest.test_case "crash flushes staged parts on restart" `Quick
      test_crash_flushes_staged_parts;
    Alcotest.test_case "read repair through coalesced envelopes" `Quick
      test_read_repair_through_batching;
    Alcotest.test_case "quorum fan-out coalesces" `Quick
      test_batching_collapses_fanout;
    Alcotest.test_case "a delivery releases its replies at once" `Quick
      test_delivery_releases_replies;
  ]
