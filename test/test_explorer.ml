(* The schedule explorer end to end: the mutation-mode self-test must
   find a planted-loss schedule and shrink it to a small replayable
   repro; the protected sweep must come back clean; committed repro
   artifacts must replay to the same failure (a lost write), or replay
   clean once their defect is fixed (the coordinator livelock); shrinking
   must strip superfluous tweaks. *)

module Explorer = Dht_check.Explorer
module Scenarios = Dht_check.Scenarios
module Schedule = Dht_check.Schedule

(* Under `dune runtest` the cwd is the test directory (the artifact is a
   declared dep); under `dune exec` from the project root it is not. *)
let repro name =
  let local = Filename.concat "repros" name in
  if Sys.file_exists local then local else Filename.concat "test/repros" name

let repro_path = repro "lost-acked-write.sched"

let test_mutation_selftest () =
  let sc = Scenarios.kv ~name:"kv-mutate" ~protect:false () in
  match
    Explorer.explore ~kinds:[ `Drop ] ~rounds:30 ~max_tweaks:3 sc
      ~seeds:[ 1; 2; 3; 4; 5 ]
  with
  | None -> Alcotest.fail "mutation-mode explorer found nothing"
  | Some (o : Explorer.outcome) ->
      Alcotest.(check bool) "failures reported" true (o.failures <> []);
      Alcotest.(check bool) "shrunk schedule is small" true
        (Schedule.length o.schedule <= 25);
      (* Replay determinism: the same schedule reproduces the same
         failure, run after run. *)
      let a = Explorer.run sc o.schedule in
      let b = Explorer.run sc o.schedule in
      Alcotest.(check (list string)) "replay reproduces" a.failures b.failures;
      Alcotest.(check bool) "replay still fails" true (a.failures <> [])

let test_protected_sweep () =
  let sc = Scenarios.kv () in
  match
    Explorer.explore ~rounds:5 ~max_tweaks:3 sc ~seeds:[ 31; 32 ]
  with
  | None -> ()
  | Some (o : Explorer.outcome) ->
      Alcotest.failf "protected scenario failed under %s:@.%s"
        (Schedule.to_string o.schedule)
        (String.concat "\n" o.failures)

let load_repro ?(path = repro_path) () =
  match Schedule.load ~path with
  | Error m -> Alcotest.failf "cannot load %s: %s" path m
  | Ok sched -> (
      match Scenarios.by_name sched.Schedule.scenario with
      | None ->
          Alcotest.failf "unknown scenario %S in repro"
            sched.Schedule.scenario
      | Some sc -> (sc, sched))

let contains ~affix m =
  let n = String.length affix and len = String.length m in
  let rec go i = i + n <= len && (String.sub m i n = affix || go (i + 1)) in
  go 0

let test_repro_replays () =
  let sc, sched = load_repro () in
  let o = Explorer.run sc sched in
  match o.Explorer.failures with
  | [] -> Alcotest.failf "repro %s no longer fails" repro_path
  | msgs ->
      (* The committed artifact pins a lost acknowledged write. *)
      let mentions_loss m =
        List.exists
          (fun affix -> contains ~affix m)
          [ "durability"; "lost"; "exception" ]
      in
      Alcotest.(check bool) "failure is a lost write" true
        (List.exists mentions_loss msgs)

(* A creation coordinator that crashed while its own loopback Prepare was
   in flight used to lose it and wait forever after restart; the horizon
   turned the hang into a liveness failure. The loopback now waits on the
   crashed snode's parked queue, so the committed schedule replays clean
   and stays as a regression. *)
let test_livelock_repro_passes () =
  let path = repro "creation-coordinator-livelock.sched" in
  let sc, sched = load_repro ~path () in
  let o = Explorer.run sc sched in
  Alcotest.(check (list string)) "replay finds nothing" [] o.Explorer.failures

let test_shrink_strips_superfluous () =
  let sc, sched = load_repro () in
  (* linger = 0 in this scenario, so a flush tweak is a pure no-op; the
     padded schedule still fails and shrinking must strip the pad. *)
  let padded =
    { sched with Schedule.tweaks = Schedule.Flush { site = 0 } :: sched.tweaks }
  in
  let padded_run = Explorer.run sc padded in
  Alcotest.(check bool) "padded schedule still fails" true
    (padded_run.Explorer.failures <> []);
  let shrunk = Explorer.shrink sc padded in
  Alcotest.(check bool) "pad removed" true
    (Schedule.length shrunk <= Schedule.length sched);
  Alcotest.(check bool) "shrunk still fails" true
    ((Explorer.run sc shrunk).Explorer.failures <> [])

let suite =
  [
    Alcotest.test_case "mutation-mode self-test finds the loss" `Slow
      test_mutation_selftest;
    Alcotest.test_case "protected sweep is clean" `Slow test_protected_sweep;
    Alcotest.test_case "committed repro replays" `Quick test_repro_replays;
    Alcotest.test_case "committed livelock replays" `Quick
      test_livelock_repro_passes;
    Alcotest.test_case "shrink strips superfluous tweaks" `Quick
      test_shrink_strips_superfluous;
  ]
