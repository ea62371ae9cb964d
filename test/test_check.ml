(* The verification subsystem itself: schedule (de)serialization, the
   invariant battery over snapshots (including tamper detection), the
   per-commit audit hook, the 200+-seed join/leave sweep through the
   Local_dht oracle, and linger schedule-transparency. *)

open Dht_core
module Runtime = Dht_snode.Runtime
module Fault = Dht_event_sim.Fault
module Invariants = Dht_check.Invariants
module Schedule = Dht_check.Schedule
module Rng = Dht_prng.Rng

let vid ~snode ~vnode = Vnode_id.make ~snode ~vnode

(* ------------------------------------------------------------------ *)
(* Schedule round-trip and parse errors.                              *)

let sample_schedule =
  {
    Schedule.seed = 42;
    scenario = "kv";
    tweaks =
      [
        Schedule.Delay { site = 7; by = 0.0025 };
        Schedule.Drop { site = 19 };
        Schedule.Crash { site = 3; snode = 2; down = 0.05 };
        Schedule.Flush { site = 11 };
      ];
  }

(* Schedules are parsed from files, the way the explorer replays them. *)
let parse_schedule text =
  let path = Filename.temp_file "dht-sched" ".sched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Schedule.load ~path)

let test_schedule_roundtrip () =
  let s = Schedule.to_string sample_schedule in
  (match parse_schedule s with
  | Ok back -> Alcotest.(check bool) "text round-trip" true (back = sample_schedule)
  | Error m -> Alcotest.failf "round-trip parse failed: %s" m);
  let path = Filename.temp_file "dht-sched" ".sched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Schedule.save ~path sample_schedule;
      match Schedule.load ~path with
      | Ok back ->
          Alcotest.(check bool) "file round-trip" true (back = sample_schedule)
      | Error m -> Alcotest.failf "load failed: %s" m)

let test_schedule_parse_errors () =
  let bad s =
    match parse_schedule s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed schedule %S" s
  in
  bad "wibble 3";
  bad "seed notanint";
  bad "delay 3";
  bad "crash 1 2";
  bad "drop many";
  (* Comments and blank lines are fine. *)
  match parse_schedule "# comment\n\nseed 5\ndrop 3\n" with
  | Ok t ->
      Alcotest.(check int) "seed" 5 t.Schedule.seed;
      Alcotest.(check int) "tweaks" 1 (Schedule.length t)
  | Error m -> Alcotest.failf "rejected valid schedule: %s" m

(* ------------------------------------------------------------------ *)
(* Satellite: 200+-seed join/leave sweep through the Local_dht oracle,
   auditing after every step. Schedules are int lists so the failing
   case shrinks to a minimal step sequence. *)

(* One step per int: biased three-to-one toward adds; removals pick an
   existing vnode and ignore legitimate refusals (Group_at_minimum &c). *)
let run_oracle_schedule ops =
  let rng = Rng.of_int 7 in
  let dht =
    Local_dht.create ~pmin:8 ~vmin:2 ~rng ~first:(vid ~snode:0 ~vnode:0) ()
  in
  let next = ref 1 in
  let present = ref [] in
  let step n =
    let n = abs n in
    if n mod 4 < 3 || !present = [] then begin
      let id = vid ~snode:(!next mod 8) ~vnode:(!next / 8) in
      incr next;
      ignore (Local_dht.add_vnode dht ~id);
      present := id :: !present
    end
    else begin
      let idx = n / 4 mod List.length !present in
      let id = List.nth !present idx in
      match Local_dht.remove_vnode dht ~id with
      | Ok () -> present := List.filter (fun i -> i <> id) !present
      | Error _ -> ()
    end
  in
  let violation = ref None in
  List.iteri
    (fun i n ->
      if !violation = None then begin
        step n;
        match Invariants.check_local dht with
        | [] -> ()
        | fs -> violation := Some (i, Invariants.to_strings fs)
      end)
    ops;
  !violation

let pp_ops ops = String.concat ";" (List.map string_of_int ops)

(* Greedy list shrinking: drop elements while the violation persists. *)
let shrink_ops ops =
  let failing o = run_oracle_schedule o <> None in
  let rec fixpoint o =
    let n = List.length o in
    let rec try_rm i =
      if i >= n then None
      else
        let cand = List.filteri (fun j _ -> j <> i) o in
        if failing cand then Some cand else try_rm (i + 1)
    in
    match try_rm 0 with Some o' -> fixpoint o' | None -> o
  in
  fixpoint ops

let test_oracle_sweep () =
  for seed = 0 to 219 do
    let rng = Rng.of_int ((seed * 31) + 1) in
    let ops = List.init 40 (fun _ -> Rng.int rng 1000) in
    match run_oracle_schedule ops with
    | None -> ()
    | Some (step, msgs) ->
        let small = shrink_ops ops in
        Alcotest.failf
          "seed %d violated the audit at step %d:@.%s@.shrunk schedule: [%s]"
          seed step (String.concat "\n" msgs) (pp_ops small)
  done

(* The same property under QCheck's own generation and shrinking. *)
let qcheck_oracle =
  QCheck.Test.make ~count:200 ~name:"oracle audit holds on random schedules"
    QCheck.(small_list (int_bound 1000))
    (fun ops ->
      match run_oracle_schedule ops with
      | None -> true
      | Some (step, msgs) ->
          QCheck.Test.fail_reportf "audit violated at step %d:@.%s" step
            (String.concat "\n" msgs))

(* ------------------------------------------------------------------ *)
(* Snapshot battery: a healthy cluster passes; tampered views fail.    *)

let build_cluster ?(linger = 0.) ~seed () =
  let rt =
    Runtime.create
      ~faults:(Fault.create ~seed ())
      ~pmin:8
      ~approach:(Runtime.Local { vmin = 2 })
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~linger ~snodes:4 ~seed ()
  in
  for i = 1 to 3 do
    Runtime.create_vnode rt ~id:(vid ~snode:(i mod 4) ~vnode:(i / 4)) ()
  done;
  Runtime.run rt;
  for k = 0 to 9 do
    Runtime.put rt ~via:(k mod 4) ~key:(Printf.sprintf "key-%d" k)
      ~value:(Printf.sprintf "v-%d" k) ()
  done;
  Runtime.run rt;
  rt

let test_healthy_view_passes () =
  let rt = build_cluster ~seed:3 () in
  match Invariants.check_runtime rt with
  | [] -> ()
  | fs ->
      Alcotest.failf "healthy cluster flagged:@.%s"
        (String.concat "\n" (Invariants.to_strings fs))

let test_tampered_view_detected () =
  let rt = build_cluster ~seed:4 () in
  let v = Runtime.view rt in
  let space = Runtime.space rt in
  let pmin = Runtime.pmin rt and vmax = Runtime.vmax rt in
  let check v = Invariants.check_view ~space ~pmin ~vmax v in
  Alcotest.(check bool) "untampered passes" true (check v = []);
  (* Tamper 1: delete a vnode from one live snode — coverage breaks. *)
  let drop_vnode (s : Runtime.View.snode_view) =
    match s.vnodes with
    | [] -> s
    | _ :: rest -> { s with vnodes = rest }
  in
  let tampered1 =
    {
      v with
      Runtime.View.snodes =
        (match v.Runtime.View.snodes with
        | s :: rest -> drop_vnode s :: rest
        | [] -> []);
    }
  in
  Alcotest.(check bool) "missing vnode detected" true (check tampered1 <> []);
  (* Tamper 2: blank a live snode's routing cache — coverage finding. *)
  let tampered2 =
    {
      v with
      Runtime.View.snodes =
        List.map
          (fun (s : Runtime.View.snode_view) ->
            if s.sid = 0 then { s with cache = [] } else s)
          v.Runtime.View.snodes;
    }
  in
  Alcotest.(check bool) "blank cache detected" true (check tampered2 <> [])

(* The routing-cache entry bound is part of the battery: a view whose
   fullest cache holds [m] entries passes at cap [m] and is flagged at
   cap [m - 1]; cap 0 means unbounded. *)
let test_cache_over_cap_flagged () =
  let rt = build_cluster ~seed:5 () in
  let v = Runtime.view rt in
  let check route_cap =
    Invariants.check_view ~route_cap ~space:(Runtime.space rt)
      ~pmin:(Runtime.pmin rt) ~vmax:(Runtime.vmax rt) v
  in
  let m =
    List.fold_left
      (fun acc (s : Runtime.View.snode_view) -> max acc (List.length s.cache))
      0 v.Runtime.View.snodes
  in
  Alcotest.(check bool) "several cache entries" true (m > 1);
  Alcotest.(check int) "unbounded passes" 0 (List.length (check 0));
  Alcotest.(check int) "at the cap passes" 0 (List.length (check m));
  match check (m - 1) with
  | [] -> Alcotest.fail "cache over its cap not flagged"
  | fs ->
      List.iter
        (fun (f : Invariants.finding) ->
          Alcotest.(check string) "cache finding" "cache" f.inv)
        fs

(* A crashed snode's routing cache is durable: a hole in it is flagged
   even while the snode is down. *)
let test_down_snode_cache_checked () =
  let rt = build_cluster ~seed:6 () in
  let v = Runtime.view rt in
  let tampered =
    {
      v with
      Runtime.View.snodes =
        List.map
          (fun (s : Runtime.View.snode_view) ->
            if s.sid = 1 then { s with up = false; cache = [] } else s)
          v.Runtime.View.snodes;
    }
  in
  match
    Invariants.check_view ~space:(Runtime.space rt) ~pmin:(Runtime.pmin rt)
      ~vmax:(Runtime.vmax rt) tampered
  with
  | [] -> Alcotest.fail "down snode's blank cache not flagged"
  | fs ->
      Alcotest.(check bool) "cache finding" true
        (List.exists (fun (f : Invariants.finding) -> f.inv = "cache") fs)

(* ------------------------------------------------------------------ *)
(* Per-commit audit hook: the snode-local battery holds after every
   balancing commit, including mid-churn.                              *)

let test_per_commit_hook () =
  let rt =
    Runtime.create
      ~faults:(Fault.create ~seed:11 ())
      ~pmin:8
      ~approach:(Runtime.Local { vmin = 2 })
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes:4 ~seed:11 ()
  in
  let commits = ref 0 in
  let bad = ref [] in
  Runtime.set_on_commit rt
    (Some
       (fun ~event:_ ~snode ->
         incr commits;
         let v = Runtime.view rt in
         match
           List.find_opt
             (fun (s : Runtime.View.snode_view) -> s.sid = snode)
             v.Runtime.View.snodes
         with
         | None -> bad := "hook: unknown snode" :: !bad
         | Some s ->
             bad :=
               Invariants.to_strings
                 (Invariants.check_snode ~space:(Runtime.space rt) s)
               @ !bad));
  for i = 1 to 5 do
    Runtime.create_vnode rt ~id:(vid ~snode:(i mod 4) ~vnode:(i / 4)) ()
  done;
  Runtime.run rt;
  for k = 0 to 7 do
    Runtime.put rt ~via:(k mod 4) ~key:(Printf.sprintf "key-%d" k)
      ~value:(Printf.sprintf "v-%d" k) ()
  done;
  Runtime.remove_vnode rt ~id:(vid ~snode:1 ~vnode:0) (fun _ -> ());
  Runtime.run rt;
  Runtime.set_on_commit rt None;
  Alcotest.(check bool) "commits observed" true (!commits > 0);
  match !bad with
  | [] -> ()
  | msgs ->
      Alcotest.failf "per-commit audit violated:@.%s" (String.concat "\n" msgs)

(* ------------------------------------------------------------------ *)
(* Satellite: linger batching is schedule-transparent. The same seed
   driven with linger = 0 and linger > 0 must pass through View-equal
   states at every quiescent stage boundary.                           *)

(* What batching must leave invariant is the data plane: at every
   commit boundary the authoritative key->value map equals the linger-0
   run's, state for state, and every snapshot passes the full battery.
   Structural placement is allowed to differ -- balancing victim
   selection draws from per-snode RNG streams whose consumption order
   message coalescing legitimately reorders -- so the projection below
   compares what the store holds, not which vnode holds it. *)
let kv_projection (v : Runtime.View.t) =
  List.concat_map
    (fun (s : Runtime.View.snode_view) ->
      List.concat_map
        (fun (vn : Runtime.View.vnode_view) -> vn.data)
        s.vnodes)
    v.Runtime.View.snodes
  |> List.sort compare

let stage_views ~linger ~seed =
  let rt =
    Runtime.create
      ~faults:(Fault.create ~seed ())
      ~pmin:8
      ~approach:(Runtime.Local { vmin = 2 })
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~linger ~snodes:4 ~seed ()
  in
  let views = ref [] in
  let snap () = views := Runtime.view rt :: !views in
  for i = 1 to 3 do
    Runtime.create_vnode rt ~id:(vid ~snode:(i mod 4) ~vnode:(i / 4)) ();
    Runtime.run rt;
    snap ()
  done;
  for k = 0 to 9 do
    Runtime.put rt ~via:(k mod 4) ~key:(Printf.sprintf "key-%d" k)
      ~value:(Printf.sprintf "a-%d" k) ()
  done;
  Runtime.run rt;
  snap ();
  for i = 4 to 5 do
    Runtime.create_vnode rt ~id:(vid ~snode:(i mod 4) ~vnode:(i / 4)) ();
    Runtime.run rt;
    snap ()
  done;
  for k = 0 to 9 do
    Runtime.put rt ~via:((k + 1) mod 4) ~key:(Printf.sprintf "key-%d" k)
      ~value:(Printf.sprintf "b-%d" k) ()
  done;
  Runtime.run rt;
  snap ();
  List.rev !views

let test_linger_transparency () =
  for seed = 0 to 49 do
    let plain = stage_views ~linger:0. ~seed in
    let batched = stage_views ~linger:0.002 ~seed in
    List.iteri
      (fun stage (a, b) ->
        let pa = kv_projection a and pb = kv_projection b in
        if pa <> pb then
          Alcotest.failf "seed %d: batched data plane diverged at stage %d"
            seed stage;
        List.iter
          (fun v ->
            match
              Invariants.check_view ~space:Dht_hashspace.Space.default
                ~pmin:8 ~vmax:4 v
            with
            | [] -> ()
            | fs ->
                Alcotest.failf "seed %d stage %d audit:@.%s" seed stage
                  (String.concat "\n" (Invariants.to_strings fs)))
          [ a; b ])
      (List.combine plain batched)
  done

let suite =
  [
    Alcotest.test_case "schedule round-trip" `Quick test_schedule_roundtrip;
    Alcotest.test_case "schedule parse errors" `Quick test_schedule_parse_errors;
    Alcotest.test_case "oracle 220-seed join/leave sweep" `Slow
      test_oracle_sweep;
    QCheck_alcotest.to_alcotest qcheck_oracle;
    Alcotest.test_case "healthy view passes battery" `Quick
      test_healthy_view_passes;
    Alcotest.test_case "tampered views are detected" `Quick
      test_tampered_view_detected;
    Alcotest.test_case "routing cache over its cap is flagged" `Quick
      test_cache_over_cap_flagged;
    Alcotest.test_case "down snode's cache is checked" `Quick
      test_down_snode_cache_checked;
    Alcotest.test_case "per-commit snode audit holds" `Quick
      test_per_commit_hook;
    Alcotest.test_case "linger batching is schedule-transparent" `Slow
      test_linger_transparency;
  ]
