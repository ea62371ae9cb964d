(* Observability layer: causal span trees, critical-path decomposition,
   heat EWMA/skew summaries, the gray-failure health scorer and the
   bounded trace sinks.

   The centerpiece is a 100-seed property over the quorum runtime with
   causal tracing on: every span log must be well-formed (parents exist,
   are older and share the trace id; every edge walks up to its op root),
   the op roots must match the history recorder's token set exactly, and
   the queue/network/service/retransmit decomposition must sum to the
   runtime's own latency measurement for every op. The last 40 seeds run
   under a lossy network, so retransmitted frames must keep their trace id
   while logging a fresh span per attempt. *)

module Runtime = Dht_snode.Runtime
module Engine = Dht_event_sim.Engine
module Fault = Dht_event_sim.Fault
module Trace = Dht_telemetry.Trace
module Registry = Dht_telemetry.Registry
module Causal = Dht_obsv.Causal
module Heat = Dht_obsv.Heat
module Health = Dht_obsv.Health
module Jsonl = Dht_obsv.Jsonl
open Dht_core

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Span-tree well-formedness over the quorum runtime                    *)

let nonempty_lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

let contains sub line =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  go 0

(* Traces are analyzed from a file, the way [dht_sim trace analyze] reads
   them. *)
let causal_of_lines lines =
  let path = Filename.temp_file "dht-causal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      match Causal.load path with Ok t -> t | Error m -> Alcotest.fail m)

(* Every recorded op token roots a span tree, and every tree's trace id is
   a recorded op token. *)
let check_roots t ~expected =
  let have = Causal.roots t in
  let expected = List.sort_uniq compare expected in
  let missing = List.filter (fun tok -> not (List.mem tok have)) expected in
  let extra = List.filter (fun tr -> not (List.mem tr expected)) have in
  List.map (Printf.sprintf "op token %d has no op.begin root") missing
  @ List.map (Printf.sprintf "trace %d matches no recorded op token") extra

(* One seeded quorum workload with causal tracing to a buffer: a few
   balancing events, then replicated puts and gets. Returns the parsed
   span log, the recorder's op tokens, and the raw trace lines. *)
let run_traced ?(drop = 0.) ~seed () =
  let buf = Buffer.create 8192 in
  let trace = Trace.to_buffer Trace.Jsonl buf in
  let faults = if drop > 0. then Some (Fault.create ~drop ~seed ()) else None in
  let rt =
    Runtime.create ?faults ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~trace
      ~causal:true ~snodes:3 ~seed ()
  in
  let tokens = ref [] in
  Runtime.set_recorder rt
    (Some
       (function
       | Runtime.Oplog.Invoke { token; _ } -> tokens := token :: !tokens
       | _ -> ()));
  for i = 1 to 3 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(i mod 3) ~vnode:(i / 3))
      ()
  done;
  Runtime.run rt;
  for i = 0 to 9 do
    Runtime.put rt ~via:(i mod 3)
      ~key:(Printf.sprintf "k%d" i)
      ~value:(Printf.sprintf "v%d" i)
      ()
  done;
  Runtime.run rt;
  for i = 0 to 9 do
    Runtime.get rt ~via:((i + 1) mod 3) ~key:(Printf.sprintf "k%d" i) ignore
  done;
  Runtime.run rt;
  Trace.close trace;
  let lines = nonempty_lines (Buffer.contents buf) in
  (causal_of_lines lines, List.rev !tokens, lines)

let assert_well_formed ~seed (t, tokens, _) =
  let label msg = Printf.sprintf "seed %d: %s" seed msg in
  check Alcotest.(list string) (label "no malformed lines") []
    (Causal.malformed t);
  check Alcotest.(list string) (label "span-tree audit") [] (Causal.audit t);
  check Alcotest.(list string) (label "roots match recorded ops") []
    (check_roots t ~expected:tokens);
  check Alcotest.int (label "every op has a root") (List.length tokens)
    (Causal.op_count t);
  let a = Causal.analyze t in
  check Alcotest.int (label "no unfinished ops") 0 a.Causal.unfinished;
  check Alcotest.int (label "no broken critical paths") 0 a.Causal.broken;
  check Alcotest.(list string) (label "decomposition sums to latency") []
    (Causal.sum_mismatches a);
  a

let test_span_trees_clean_seeds () =
  for seed = 0 to 59 do
    let a = assert_well_formed ~seed (run_traced ~seed ()) in
    check Alcotest.int
      (Printf.sprintf "seed %d: all 20 ops analyzed" seed)
      20
      (List.length a.Causal.complete)
  done

let test_span_trees_faulty_seeds () =
  (* Lossy network: the reliable layer retransmits, and every retransmitted
     frame must reuse the edge's trace id under a fresh span id — counted
     here as strictly more msg.xmit than msg.send events, while the audit
     (which resolves each xmit against its edge, trace id included) stays
     clean. *)
  let retransmitting = ref 0 in
  for seed = 60 to 99 do
    let ((_, _, lines) as r) = run_traced ~drop:0.15 ~seed () in
    ignore (assert_well_formed ~seed r);
    let count sub = List.length (List.filter (contains sub) lines) in
    let sends = count "\"name\":\"msg.send\""
    and xmits = count "\"name\":\"msg.xmit\"" in
    check Alcotest.bool
      (Printf.sprintf "seed %d: every edge transmitted" seed)
      true (xmits >= sends);
    if xmits > sends then incr retransmitting
  done;
  check Alcotest.bool "retransmissions observed across the fault sweep" true
    (!retransmitting > 0)

let test_trace_determinism_with_causal () =
  (* Same seed, same causal trace, byte for byte. *)
  let _, _, a = run_traced ~seed:7 () and _, _, b = run_traced ~seed:7 () in
  check Alcotest.(list string) "causal traces identical" a b

(* Every op's causal tree closes, whatever its outcome: each [op.begin]
   is matched by exactly one [op.end] — acked and answered ops, ops shed
   by admission control, a put that cannot assemble W (two of three
   replicas down, no fallback on the ring), and a range read with every
   snode down. *)
let test_every_outcome_closes () =
  let closes ?admission_deadline ~outcomes drive =
    let buf = Buffer.create 8192 in
    let trace = Trace.to_buffer Trace.Jsonl buf in
    let rt =
      Runtime.create ?admission_deadline ~rfactor:3 ~read_quorum:2
        ~write_quorum:2 ~trace ~causal:true ~snodes:3 ~seed:5 ()
    in
    drive rt ~whole:(Dht_hashspace.Space.size (Runtime.space rt));
    Trace.close trace;
    let lines = nonempty_lines (Buffer.contents buf) in
    let t = causal_of_lines lines in
    let a = Causal.analyze t in
    check Alcotest.(list string) "no malformed lines" [] (Causal.malformed t);
    check Alcotest.int "no op left open" 0 a.Causal.unfinished;
    check Alcotest.int "one op.end per op" (Causal.op_count t)
      (List.length (List.filter (contains "\"name\":\"op.end\"") lines));
    check Alcotest.(list string) "outcomes" outcomes
      (List.sort compare
         (List.map (fun o -> o.Causal.a_outcome) a.Causal.complete))
  in
  closes ~outcomes:[ "fail"; "fail"; "ok"; "ok"; "ok" ] (fun rt ~whole ->
      Runtime.put rt ~via:0 ~key:"a" ~value:"1" ();
      Runtime.run rt;
      Runtime.get rt ~via:1 ~key:"a" ignore;
      Runtime.range_get rt ~via:2 ~lo:0 ~hi:whole ignore;
      Runtime.run rt;
      Runtime.crash_snode rt 1;
      Runtime.crash_snode rt 2;
      Runtime.put rt ~via:0 ~key:"b" ~value:"2" ();
      Runtime.run rt;
      Runtime.crash_snode rt 0;
      Runtime.range_get rt ~via:0 ~lo:0 ~hi:whole ignore;
      Runtime.run rt);
  closes ~admission_deadline:1e-9 ~outcomes:[ "busy"; "busy" ]
    (fun rt ~whole:_ ->
      Runtime.put rt ~via:0 ~key:"a" ~value:"1" ();
      Runtime.get rt ~via:1 ~key:"a" ignore;
      Runtime.run rt)

(* Causal tracing adds bytes, never messages: the same batched quorum
   workload (48 creations, 512 puts, 512 gets on 8 snodes, one-quantum
   linger) sends exactly as many messages traced as untraced, and every
   wire edge ([msg.send]) carries one span context: the bytes a
   [Wire.Traced] wrapper adds to its payload. At seed 2004: 799 messages
   both ways, 600,116 -> 705,956 bytes over 5,292 sends. *)
let test_causal_context_bytes () =
  let workload ~causal =
    let buf = Buffer.create (if causal then 1 lsl 20 else 16) in
    let trace = if causal then Trace.to_buffer Trace.Jsonl buf else Trace.noop in
    let rt =
      Runtime.create ~pmin:8
        ~approach:(Runtime.Local { vmin = 4 })
        ~rfactor:3 ~read_quorum:2 ~write_quorum:2
        ~linger:Runtime.Network.gigabit.base_latency ~trace ~causal ~snodes:8
        ~seed:2004 ()
    in
    for i = 1 to 48 do
      Runtime.create_vnode rt ~id:(Vnode_id.make ~snode:(i mod 8) ~vnode:(i / 8)) ()
    done;
    Runtime.run rt;
    for i = 0 to 511 do
      Runtime.put rt ~via:(i mod 8) ~key:("bench-" ^ string_of_int i) ~value:"v" ()
    done;
    Runtime.run rt;
    for i = 0 to 511 do
      Runtime.get rt ~via:(i mod 8) ~key:("bench-" ^ string_of_int i) ignore
    done;
    Runtime.run rt;
    Trace.close trace;
    let net = Runtime.network rt in
    let sends =
      List.length
        (List.filter (contains "\"name\":\"msg.send\"")
           (nonempty_lines (Buffer.contents buf)))
    in
    (Runtime.Network.messages net, Runtime.Network.bytes_sent net, sends)
  in
  let msgs, bytes, _ = workload ~causal:false in
  let tmsgs, tbytes, sends = workload ~causal:true in
  check Alcotest.bool "traced run sends edges" true (sends > 0);
  check Alcotest.int "same message count" msgs tmsgs;
  let context =
    let module W = Dht_snode.Wire in
    let m = W.Busy { token = 0 } in
    W.size_bytes (Traced { trace = 0; span = 0; hop = 0; payload = m })
    - W.size_bytes m
  in
  check Alcotest.int "one span context per sent edge"
    (bytes + (context * sends))
    tbytes

(* ------------------------------------------------------------------ *)
(* Analyzer units on a hand-built trace                                 *)

let test_analyzer_hand_built () =
  (* One op: root at t=0, an edge sent at 1.0, transmitted at 1.010 and
     1.020 (one retransmit), delivered at 1.025, completing the op. *)
  let lines =
    [
      {|{"ts":0,"kind":"instant","name":"op.begin","cat":"causal","tid":0,"args":{"trace":7,"span":0,"op":"put"}}|};
      {|{"ts":1,"kind":"instant","name":"msg.send","cat":"causal","tid":0,"args":{"trace":7,"span":1,"parent":0,"src":0,"dst":1,"tag":"routed:put","hop":0,"bytes":80}}|};
      {|{"ts":1.01,"kind":"instant","name":"msg.xmit","cat":"causal","tid":0,"args":{"trace":7,"span":2,"parent":1,"attempt":1}}|};
      {|{"ts":1.02,"kind":"instant","name":"msg.xmit","cat":"causal","tid":0,"args":{"trace":7,"span":3,"parent":1,"attempt":2}}|};
      {|{"ts":1.025,"kind":"instant","name":"msg.recv","cat":"causal","tid":1,"args":{"trace":7,"span":1,"dst":1}}|};
      {|{"ts":1.045,"kind":"instant","name":"op.end","cat":"causal","tid":1,"args":{"trace":7,"span":4,"parent":1,"outcome":"ok"}}|};
      {|{"ts":0,"kind":"span","name":"op","cat":"sim","tid":0,"dur":1.045,"args":{"op":"put","token":7}}|};
    ]
  in
  let t = causal_of_lines lines in
  check Alcotest.(list string) "clean" [] (Causal.malformed t);
  check Alcotest.(list string) "audited" [] (Causal.audit t);
  let a = Causal.analyze t in
  check Alcotest.(list string) "sums" [] (Causal.sum_mismatches a);
  match a.Causal.complete with
  | [ az ] ->
      let b = az.Causal.a_breakdown in
      let feq name expected got =
        check (Alcotest.float 1e-9) name expected got
      in
      feq "queue: send to first xmit" 0.01 b.Causal.queue;
      feq "retransmit: first to last xmit" 0.01 b.Causal.retransmit;
      feq "network: last xmit to recv" 0.005 b.Causal.network;
      (* service = total - edge time = 1.045 - 0.025 *)
      feq "service residual" 1.02 b.Causal.service;
      feq "total" 1.045 b.Causal.total;
      check Alcotest.(option (float 1e-9)) "recorded" (Some 1.045)
        az.Causal.a_recorded;
      (match az.Causal.a_path with
      | [ s ] ->
          check Alcotest.int "attempts" 2 s.Causal.s_attempts;
          check Alcotest.string "tag" "routed:put" s.Causal.s_tag
      | _ -> Alcotest.fail "expected one critical-path step")
  | _ -> Alcotest.fail "expected exactly one complete op"

let test_analyzer_catches_breakage () =
  (* A child pointing at a missing parent must surface in malformed; an
     op.end naming an unknown span in the audit. *)
  let orphan =
    causal_of_lines
      [
        {|{"ts":0,"kind":"instant","name":"msg.send","cat":"causal","tid":0,"args":{"trace":1,"span":5,"parent":99,"src":0,"dst":1,"tag":"x","hop":0,"bytes":1}}|};
      ]
  in
  check Alcotest.bool "orphan edge reported" true
    (Causal.audit orphan <> [] || Causal.malformed orphan <> []);
  let bad = causal_of_lines [ "{not json" ] in
  check Alcotest.int "unparseable line counted" 1
    (List.length (Causal.malformed bad))

(* ------------------------------------------------------------------ *)
(* Heat EWMA cells and skew summaries                                   *)

let test_heat_ewma_decay () =
  Alcotest.check_raises "tau must be positive"
    (Invalid_argument "Heat.cell: tau must be positive") (fun () ->
      ignore (Heat.cell ~tau:0.));
  let c = Heat.cell ~tau:2.0 in
  check (Alcotest.float 1e-12) "cold cell is zero" 0. (Heat.value c ~now:5.);
  Heat.charge c ~now:0. ();
  check (Alcotest.float 1e-12) "fresh charge" 1. (Heat.value c ~now:0.);
  check (Alcotest.float 1e-12) "one tau of decay" (exp (-1.))
    (Heat.value c ~now:2.);
  check (Alcotest.float 1e-12) "two tau of decay" (exp (-2.))
    (Heat.value c ~now:4.);
  Heat.charge c ~now:2. ~weight:3. ();
  check (Alcotest.float 1e-12) "charge adds to the decayed value"
    (exp (-1.) +. 3.)
    (Heat.value c ~now:2.);
  check Alcotest.int "count never decays" 2 (Heat.count c)

let test_gini () =
  check (Alcotest.float 1e-12) "uniform load has zero Gini" 0.
    (Heat.gini [| 3.; 3.; 3.; 3. |]);
  check (Alcotest.float 1e-12) "all mass on one of four" 0.75
    (Heat.gini [| 0.; 0.; 0.; 4. |]);
  (* Monotonicity: moving mass from a poor partition to a rich one can
     only increase inequality. *)
  let g1 = Heat.gini [| 1.; 1.; 1.; 5. |] in
  let g2 = Heat.gini [| 0.; 1.; 1.; 6. |] in
  check Alcotest.bool "regressive transfer raises Gini" true (g2 > g1);
  check Alcotest.bool "Gini in [0, 1)" true (g1 >= 0. && g2 < 1.);
  check (Alcotest.float 1e-12) "empty vector" 0. (Heat.gini [||]);
  check (Alcotest.float 1e-12) "balanced sigma" 0.
    (Heat.sigma_pct [| 2.; 2.; 2. |]);
  check Alcotest.bool "skewed sigma positive" true
    (Heat.sigma_pct [| 0.; 0.; 6. |] > 100.)

(* ------------------------------------------------------------------ *)
(* Health scorer                                                        *)

let healthy ~observer ~peer =
  {
    Health.observer;
    peer;
    srtt = 0.001;
    rttvar = 0.0002;
    strikes = 0;
    suspect = false;
    outbox = 1;
    backlog = 0;
  }

(* The head of the scorer's worst-first ranking. *)
let worst samples =
  match Health.scores samples with [] -> None | (p, _) :: _ -> Some p

let test_health_scorer () =
  let samples =
    List.concat_map
      (fun observer ->
        List.filter_map
          (fun peer ->
            if peer = observer then None
            else if peer = 3 then
              (* The gray-failed peer: every observer sees a bloated RTT
                 estimate, strikes and a deep outbox. *)
              Some
                {
                  Health.observer;
                  peer;
                  srtt = 0.04;
                  rttvar = 0.01;
                  strikes = 2;
                  suspect = false;
                  outbox = 12;
                  backlog = 6;
                }
            else Some (healthy ~observer ~peer))
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  check Alcotest.(option int) "worst is the gray-failed peer" (Some 3)
    (worst samples);
  let scores = Health.scores samples in
  check Alcotest.int "every peer scored" 4 (List.length scores);
  (match scores with
  | (worst, s) :: rest ->
      check Alcotest.int "ranking head" 3 worst;
      List.iter
        (fun (_, s') ->
          check Alcotest.bool "worst-first order" true (s >= s'))
        rest
  | [] -> Alcotest.fail "no scores");
  let healthy_scores = List.filter (fun (p, _) -> p <> 3) scores in
  List.iter
    (fun (p, s) ->
      check Alcotest.bool
        (Printf.sprintf "peer %d scores near the median" p)
        true
        (s > 0.5 && s < 2.))
    healthy_scores;
  check Alcotest.(option int) "empty telemetry scores nobody" None
    (worst []);
  (* Suspicion alone must outrank pure queue depth at equal RTT. *)
  let suspectd = { (healthy ~observer:0 ~peer:1) with Health.suspect = true } in
  let queued = { (healthy ~observer:0 ~peer:2) with Health.outbox = 4 } in
  check Alcotest.(option int) "suspicion dominates" (Some 1)
    (worst [ suspectd; queued ])

(* ------------------------------------------------------------------ *)
(* Bounded sinks and the JSON reader                                    *)

let test_trace_limit () =
  let buf = Buffer.create 256 in
  let tr = Trace.to_buffer ~limit:3 Trace.Jsonl buf in
  for i = 0 to 4 do
    Trace.instant tr ~ts:(float_of_int i) ~tid:0 ~name:"e" []
  done;
  Trace.close tr;
  check Alcotest.int "sink capped" 3 (Trace.events tr);
  check Alcotest.int "excess counted" 2 (Trace.dropped tr);
  check Alcotest.int "exactly the cap written" 3
    (List.length (nonempty_lines (Buffer.contents buf)));
  let unbounded = Trace.to_buffer Trace.Jsonl (Buffer.create 64) in
  Trace.instant unbounded ~ts:0. ~tid:0 ~name:"e" [];
  Trace.close unbounded;
  check Alcotest.int "unbounded sink never drops" 0 (Trace.dropped unbounded)

let test_jsonl_reader () =
  (match Jsonl.parse {|{"a":1.5,"b":"x\ny","c":[true,null],"d":{"e":-2}}|} with
  | Error e -> Alcotest.fail e
  | Ok v ->
      check Alcotest.(option (float 1e-12)) "number" (Some 1.5)
        (Jsonl.to_float (Jsonl.member "a" v));
      check Alcotest.(option string) "escaped string" (Some "x\ny")
        (Jsonl.to_string (Jsonl.member "b" v));
      check Alcotest.(option int) "nested int" (Some (-2))
        (Jsonl.to_int (Jsonl.member "e" (Option.get (Jsonl.member "d" v))));
      check Alcotest.bool "missing member" true (Jsonl.member "z" v = None));
  check Alcotest.bool "truncated input fails" true
    (Result.is_error (Jsonl.parse {|{"a":|}));
  check Alcotest.bool "trailing garbage fails" true
    (Result.is_error (Jsonl.parse {|{} {}|}))

(* ------------------------------------------------------------------ *)
(* Deterministic heat export through the registry                       *)

let heat_run ~seed =
  let rt = Runtime.create ~heat:true ~rfactor:3 ~read_quorum:2
      ~write_quorum:2 ~snodes:3 ~seed ()
  in
  for i = 0 to 19 do
    Runtime.put rt ~via:(i mod 3)
      ~key:(Printf.sprintf "key%d" i)
      ~value:(String.make 8 'x')
      ()
  done;
  Runtime.run rt;
  rt

let test_heat_rows_and_registry_determinism () =
  let rt = heat_run ~seed:11 in
  let rows = Runtime.heat_rows rt in
  check Alcotest.bool "accesses recorded" true (rows <> []);
  let sorted = List.sort
      (fun (a : Runtime.heat_row) b ->
        Dht_hashspace.Span.compare a.Runtime.hr_span b.Runtime.hr_span)
      rows
  in
  check Alcotest.bool "rows sorted by span" true (rows = sorted);
  List.iter
    (fun (r : Runtime.heat_row) ->
      check Alcotest.bool "heated partitions have a live owner" true
        (r.Runtime.hr_owner >= 0 && r.Runtime.hr_owner < 3);
      check Alcotest.bool "counts back the EWMA" true
        (r.Runtime.hr_read_count + r.Runtime.hr_write_count
         + r.Runtime.hr_repl_count
        > 0))
    rows;
  (* The registry dump is deterministic: same seed, same rows, same order
     (the registry sorts by (name, labels)). *)
  let dump rt =
    let reg = Registry.create () in
    Runtime.record_metrics rt reg;
    Registry.csv_rows reg
  in
  let a = dump rt and b = dump (heat_run ~seed:11) in
  check Alcotest.(list (list string)) "identical dumps across runs" a b;
  check Alcotest.bool "heat series exported" true
    (List.exists
       (fun row -> List.exists (fun c -> c = "heat.reads") row)
       a)

let test_heat_off_by_default () =
  let rt = Runtime.create ~snodes:3 ~seed:1 () in
  Runtime.put rt ~key:"k" ~value:"v" ();
  Runtime.run rt;
  check Alcotest.int "no heat table unless armed" 0
    (List.length (Runtime.heat_rows rt))

let suite =
  [
    Alcotest.test_case "span trees: 60 clean seeds" `Slow
      test_span_trees_clean_seeds;
    Alcotest.test_case "span trees: 40 lossy seeds retransmit" `Slow
      test_span_trees_faulty_seeds;
    Alcotest.test_case "causal trace is deterministic" `Quick
      test_trace_determinism_with_causal;
    Alcotest.test_case "every outcome closes its causal tree" `Quick
      test_every_outcome_closes;
    Alcotest.test_case "causal context adds bytes, not messages" `Quick
      test_causal_context_bytes;
    Alcotest.test_case "decomposition on a hand-built trace" `Quick
      test_analyzer_hand_built;
    Alcotest.test_case "analyzer reports breakage" `Quick
      test_analyzer_catches_breakage;
    Alcotest.test_case "heat EWMA decay" `Quick test_heat_ewma_decay;
    Alcotest.test_case "Gini and sigma skew summaries" `Quick test_gini;
    Alcotest.test_case "health scorer ranks the gray peer worst" `Quick
      test_health_scorer;
    Alcotest.test_case "bounded sinks count drops" `Quick test_trace_limit;
    Alcotest.test_case "jsonl reader round-trips sink output" `Quick
      test_jsonl_reader;
    Alcotest.test_case "heat rows and deterministic export" `Quick
      test_heat_rows_and_registry_determinism;
    Alcotest.test_case "heat off by default" `Quick test_heat_off_by_default;
  ]
