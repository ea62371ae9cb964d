module Engine = Dht_event_sim.Engine
module Network = Dht_event_sim.Network
module Runtime = Dht_snode.Runtime
module Rng = Dht_prng.Rng

type scenario = {
  name : string;
  build : seed:int -> Runtime.t;
  drive : Runtime.t -> unit;
  verify : Runtime.t -> string list;
}

type outcome = {
  schedule : Schedule.t;
  failures : string list;
  sites : int;
  snodes : int;
}

(* Virtual-time bound on one run, across every [Runtime.run] the
   scenario's [drive] makes. The longest passing run over the standard
   sweeps (kv seeds 100-109 but 107, kv-mutate 1-5, mt-ae 200-204, the
   test suite's sweeps and the committed repros) ends at 3.2 s, so this
   leaves ~19x headroom: a schedule that never quiesces fails fast
   instead of hanging the sweep. *)
let horizon = 60.

(* Execute one schedule: build the scenario's runtime for the schedule's
   seed, install a probe that applies the tweaks at their decision sites,
   drive the workload to quiescence and verify. The probe consumes no
   randomness and schedules its side effects through the engine, so the
   run is a pure function of (scenario, schedule). *)
let run sc (sched : Schedule.t) =
  let rt = sc.build ~seed:sched.seed in
  let engine = Runtime.engine rt in
  let net = Runtime.network rt in
  let by_site = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let s = Schedule.site p in
      Hashtbl.replace by_site s
        (p :: Option.value ~default:[] (Hashtbl.find_opt by_site s)))
    sched.tweaks;
  let probe ~site ~src:_ ~dst:_ ~tag:_ =
    match Hashtbl.find_opt by_site site with
    | None -> Network.Pass
    | Some ps ->
        (* Side effects first (scheduled, never synchronous — the probe
           runs inside [Network.send] and must not reenter the runtime). *)
        List.iter
          (function
            | Schedule.Crash { snode; down; _ } ->
                Engine.schedule engine ~delay:0. (fun () ->
                    Runtime.crash_snode rt snode;
                    Engine.schedule engine ~delay:down (fun () ->
                        Runtime.restart_snode rt snode))
            | Schedule.Flush _ ->
                Engine.schedule engine ~delay:0. (fun () ->
                    Runtime.flush_lingering rt)
            | Schedule.Delay _ | Schedule.Drop _ -> ())
          ps;
        if List.exists (function Schedule.Drop _ -> true | _ -> false) ps
        then Network.Sink
        else
          let d =
            List.fold_left
              (fun acc -> function
                | Schedule.Delay { by; _ } -> acc +. by
                | _ -> acc)
              0. ps
          in
          if d > 0. then Network.Defer d else Network.Pass
  in
  Network.set_probe net (Some probe);
  Engine.set_horizon engine horizon;
  (* A perturbed run may trip a runtime canary (e.g. the routing
     convergence bound under mutation-mode message loss) or never
     quiesce; either IS a detected failure, not a checker crash. *)
  let aborted =
    try
      sc.drive rt;
      Runtime.run rt;
      None
    with
    | Engine.Past_horizon h ->
        Some
          (Printf.sprintf
             "liveness: scenario %s seed %d (%d tweaks) still busy at the \
              %g s virtual-time horizon"
             sc.name sched.seed (Schedule.length sched) h)
    | e -> Some ("exception: " ^ Printexc.to_string e)
  in
  Network.set_probe net None;
  let failures =
    match aborted with
    | Some msg -> [ msg ]
    | None -> (
        try sc.verify rt
        with e -> [ "exception in verify: " ^ Printexc.to_string e ])
  in
  {
    schedule = sched;
    failures;
    sites = Network.sites net;
    snodes = Runtime.snode_count rt;
  }

(* Greedy shrinking: repeatedly drop the first tweak whose removal keeps
   the schedule failing, to a fixpoint. The result is 1-minimal — every
   remaining tweak is necessary for the failure. *)
let shrink sc (sched : Schedule.t) =
  let failing s = (run sc s).failures <> [] in
  let rec fixpoint (s : Schedule.t) =
    let n = List.length s.tweaks in
    let rec try_rm i =
      if i >= n then None
      else
        let cand =
          { s with Schedule.tweaks = List.filteri (fun j _ -> j <> i) s.tweaks }
        in
        if failing cand then Some cand else try_rm (i + 1)
    in
    match try_rm 0 with Some s' -> fixpoint s' | None -> s
  in
  if failing sched then fixpoint sched else sched

type kind = [ `Delay | `Drop | `Crash | `Flush ]

(* A delay stretches delivery by up to 5 ms; a crash lasts 50 ms. *)
let random_tweaks rng ~kinds ~max_tweaks ~sites ~snodes =
  let kinds = Array.of_list kinds in
  let n = 1 + Rng.int rng max_tweaks in
  List.init n (fun _ ->
      let site = Rng.int rng (max 1 sites) in
      match kinds.(Rng.int rng (Array.length kinds)) with
      | `Delay ->
          Schedule.Delay
            { site; by = 5e-3 *. float_of_int (1 + Rng.int rng 100) /. 100. }
      | `Drop -> Schedule.Drop { site }
      | `Crash ->
          Schedule.Crash
            { site; snode = Rng.int rng (max 1 snodes); down = 0.05 }
      | `Flush -> Schedule.Flush { site })

(* Sweep seeds; for each, measure the unperturbed run's decision-site
   count, then try [rounds] deterministically-random tweak sets drawn
   from it. The first failing schedule is shrunk and returned. A seed
   whose {e baseline} already fails is returned as-is (empty tweak list)
   — the bug needs no adversary. [on_progress] sees every run. *)
let explore ?(rounds = 20) ?(max_tweaks = 4)
    ?(kinds = ([ `Delay; `Drop; `Crash; `Flush ] : kind list)) ?on_progress sc
    ~seeds =
  let note o = match on_progress with Some f -> f o | None -> () in
  let found = ref None in
  (try
     List.iter
       (fun seed ->
         let base = { Schedule.seed; scenario = sc.name; tweaks = [] } in
         let b = run sc base in
         note b;
         if b.failures <> [] then begin
           found := Some b;
           raise Exit
         end;
         (* Deterministic exploration stream per (scenario, seed). *)
         let rng = Rng.of_int ((seed * 1000003) lxor Hashtbl.hash sc.name) in
         for _round = 1 to rounds do
           if !found = None then begin
             let tweaks =
               random_tweaks rng ~kinds ~max_tweaks ~sites:b.sites
                 ~snodes:b.snodes
             in
             let o = run sc { base with tweaks } in
             note o;
             if o.failures <> [] then begin
               let shrunk = shrink sc o.schedule in
               let final = run sc shrunk in
               found := Some final;
               raise Exit
             end
           end
         done)
       seeds;
     !found
   with Exit -> !found)
