(* The three benchmark workloads over [Dht_snode.Runtime]: cluster shapes,
   set-up (growth + key load), the open-loop measured window and the
   public counters each layer exposes. Everything simulated derives from
   the seed; host time is process CPU time ([Sys.time]). *)

module R = Dht_snode.Runtime
module Engine = Dht_event_sim.Engine
module Network = Dht_event_sim.Network
module Fault = Dht_event_sim.Fault
module Rng = Dht_prng.Rng
module Vnode_id = Dht_core.Vnode_id
module Keygen = Dht_workload.Keygen
module Space = Dht_hashspace.Space
module History = Dht_check.History

type shape = {
  name : string;
  snodes : int;
  vnodes : int;
  rfactor : int;  (** R = W = 2 when 3, single copy when 1 *)
  slow_link : bool;
      (** 0.8 ms + 10 ns/B link under a loss-free fault plan (reliable
          layer armed, adaptive RTO, up to 0.2 ms delivery jitter);
          otherwise gigabit with no plan *)
  max_inflight : int;
  keys : int;  (** key population *)
  preload : bool;  (** write every key once during set-up *)
  zipf : float;  (** 0 = uniform keys *)
  put_share : float;
  range_share : float;
  rate : float;  (** virtual ops/s, Poisson arrivals *)
  ops_per_second : int;  (** window ops per requested host second *)
  min_ops : int;
  crash : bool;  (** one snode down for the middle third of the window *)
  join : bool;  (** one vnode joins mid-window *)
  ae_rounds : int;  (** anti-entropy rounds, evenly spread over the window *)
  mt_threshold : int;  (** spans above this many keys reconcile by Merkle descent *)
  heat : bool;
  balance : bool;
  route_cap : int;  (** > 0: bounded routing, and the cluster grows paced *)
  max_hops : int;
  slo_ms : float;  (** virtual latency limit behind [slo_pct] *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
}

(* 95 % get / 5 % put over a preloaded uniform population on a gigabit,
   fault-free, replicated cluster: the quorum hot path and nothing else. *)
let point_read =
  {
    name = "point-read";
    snodes = 16;
    vnodes = 64;
    rfactor = 3;
    slow_link = false;
    max_inflight = 0;
    keys = 20_000;
    preload = true;
    zipf = 0.;
    put_share = 0.05;
    range_share = 0.;
    rate = 1_000_000.;
    ops_per_second = 50_000;
    min_ops = 100_000;
    crash = false;
    join = false;
    ae_rounds = 0;
    mt_threshold = 128;
    heat = false;
    balance = false;
    route_cap = 0;
    max_hops = 4;
    slo_ms = 0.2;
    setups = 7;
  }

(* Write-heavy 0.99-Zipf traffic on a slow, windowed link with the
   balancer armed, one snode crash-stopped for the middle third, narrow
   range scans and anti-entropy rounds inside the window. *)
let write_repair =
  {
    name = "write-repair";
    snodes = 16;
    vnodes = 64;
    rfactor = 3;
    slow_link = true;
    max_inflight = 4;
    keys = 10_000;
    preload = true;
    zipf = 0.99;
    put_share = 0.70;
    range_share = 0.015;
    rate = 100_000.;
    ops_per_second = 10_000;
    min_ops = 100_000;
    crash = true;
    join = false;
    ae_rounds = 10;
    mt_threshold = 0;
    heat = true;
    balance = false;
    route_cap = 0;
    max_hops = 4;
    slo_ms = 3.2;
    setups = 7;
  }

(* 1000 single-copy snodes behind 128-entry route caches, grown by paced
   routed creations; one crash/restart and one join in the window, which
   runs past the routing cliff. Not in BENCHMARK.json: past the cliff the
   message cost runs away by a seed-dependent amount, far beyond any
   gate's bound. *)
let routed_1k =
  {
    name = "routed-1k";
    snodes = 1000;
    vnodes = 1000;
    rfactor = 1;
    slow_link = true;
    max_inflight = 0;
    keys = 1_000_000;
    preload = false;
    zipf = 0.;
    put_share = 0.5;
    range_share = 0.;
    rate = 20_000.;
    ops_per_second = 2_000;
    min_ops = 20_000;
    crash = true;
    join = true;
    ae_rounds = 0;
    mt_threshold = 128;
    heat = false;
    balance = false;
    route_cap = 128;
    max_hops = 32;
    slo_ms = 20.;
    setups = 3;
  }

(* write-repair with hot-partition swaps armed. Not in BENCHMARK.json:
   quorum reads racing a swap return None for keys that hold acked
   values, so its history and range checks fail (see README.md). *)
let write_repair_swaps = { write_repair with name = "write-repair-swaps"; balance = true }

(* routed-1k's routing shape at a size that stays before the cliff: 256
   snodes, about 2k partitions, caches bounded at 1024 entries; in the
   window each cache learns only part of the map, so lookups still go
   through stewards and fingers. No churn: a crash in the window makes
   the tail depend on which ops wait out the restart. *)
let routed_256 =
  {
    routed_1k with
    name = "routed-256";
    snodes = 256;
    vnodes = 256;
    route_cap = 1024;
    ops_per_second = 4_000;
    min_ops = 40_000;
    crash = false;
    join = false;
    slo_ms = 6.4;
    setups = 5;
  }

let all = [ point_read; write_repair; routed_1k; write_repair_swaps; routed_256 ]
let find name = List.find_opt (fun s -> s.name = name) all
let window_ops shape ~seconds = max shape.min_ops (shape.ops_per_second * seconds)
(* Partition and group bounds of every workload (the runtime experiments'
   usual Pmin 8, Vmin 4, so 64 vnodes form several groups). *)
let pmin = 8
let vmin = 4
let slow_link = Network.link ~base_latency:8e-4 ~byte_time:1e-8

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)

type cluster = {
  rt : R.t;
  hist : History.t;
  pop : Keygen.Population.t;
  growth_cpu : float;
  load_cpu : float;
}

let create_runtime shape ~seed =
  let link = if shape.slow_link then slow_link else Network.gigabit in
  let faults =
    if shape.slow_link then Some (Fault.create ~drop:0. ~jitter:2e-4 ~seed ()) else None
  in
  let quorum = if shape.rfactor > 1 then 2 else 1 in
  R.create ~pmin ~approach:(R.Local { vmin }) ~link ?faults ~rto:5e-3 ~adaptive_rto:shape.slow_link
    ~max_inflight:shape.max_inflight ~rfactor:shape.rfactor ~read_quorum:quorum
    ~write_quorum:quorum ~linger:link.Network.base_latency ~mt_threshold:shape.mt_threshold ~heat:(shape.heat || shape.balance)
    ~heat_tau:0.3
    ?balance:(if shape.balance then Some Dht_balance.Policy.default else None)
    ~route_cap:shape.route_cap ~max_hops:shape.max_hops ~snodes:shape.snodes
    ~seed ()

let vid shape i = Vnode_id.make ~snode:(i mod shape.snodes) ~vnode:(i / shape.snodes)

(* Paced growth with steward refreshes (the routed-creation recipe of the
   routing-scaling sweep) or one burst of creations. *)
let grow shape rt =
  let engine = R.engine rt in
  if shape.route_cap > 0 then begin
    let create_rate = Float.max 2000. (float_of_int shape.snodes /. 2.) in
    let c0 = Engine.now engine +. 0.001 in
    for i = 1 to shape.vnodes - 1 do
      Engine.at engine
        ~time:(c0 +. (float_of_int (i - 1) /. create_rate))
        (fun () -> R.create_vnode rt ~id:(vid shape i) ())
    done;
    let growth = float_of_int (shape.vnodes - 1) /. create_rate in
    R.arm_route_refresh rt ~interval:0.05 ~until:(c0 +. growth +. 0.25)
  end
  else
    for i = 1 to shape.vnodes - 1 do
      R.create_vnode rt ~id:(vid shape i) ()
    done;
  R.run rt

let preload_value k = "s" ^ string_of_int k
let window_value i = "w" ^ string_of_int i

let setup shape ~seed ~spans =
  let rt = create_runtime shape ~seed in
  let hist = History.create () in
  History.attach hist rt;
  let c0 = Sys.time () in
  Spans.with_ spans "setup.grow" (fun () -> grow shape rt);
  let c1 = Sys.time () in
  let pop = Keygen.Population.create ~size:shape.keys () in
  if shape.preload then
    Spans.with_ spans "setup.load" (fun () ->
        for k = 0 to shape.keys - 1 do
          R.put rt ~via:(k mod shape.snodes)
            ~key:(Keygen.Population.nth pop k)
            ~value:(preload_value k) ()
        done;
        R.run rt);
  let c2 = Sys.time () in
  { rt; hist; pop; growth_cpu = c1 -. c0; load_cpu = c2 -. c1 }

(* ------------------------------------------------------------------ *)
(* Public counters                                                      *)

type snap = {
  cpu : float;
  msgs : int;
  bytes : int;
  batches : int;
  parts : int;
  dispatched : int;
  per_tag : (string * int * int) list;
  retransmits : int;
  backpressured : int;
  sheds : int;
  read_repairs : int;
  hints_stored : int;
  hints_flushed : int;
  ae_frames : int;
  ae_keys_sent : int;
  lb_transfers : int;
  rc_hits : int;
  rc_misses : int;
  rc_evictions : int;
  retries : int;
  hops : int array;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let snap rt =
  let net = R.network rt in
  let ov = R.overload_stats rt in
  let rs = R.repl_stats rt in
  let ae = R.ae_stats rt in
  let rc = R.route_cache_stats rt in
  let gc = Gc.quick_stat () in
  {
    cpu = Sys.time ();
    msgs = Network.messages net;
    bytes = Network.bytes_sent net;
    batches = Network.batches net;
    parts = Network.batched_parts net;
    dispatched = Engine.dispatched (R.engine rt);
    per_tag = Network.per_tag net;
    retransmits = (R.stats rt).R.retransmits;
    backpressured = ov.R.backpressured;
    sheds = ov.R.sheds;
    read_repairs = rs.R.read_repairs;
    hints_stored = rs.R.hints_stored;
    hints_flushed = rs.R.hints_flushed;
    ae_frames = ae.R.ae_frames;
    ae_keys_sent = ae.R.ae_keys_sent;
    lb_transfers = (R.lb_stats rt).R.lbs_transfers;
    rc_hits = rc.R.rcs_hits;
    rc_misses = rc.R.rcs_misses;
    rc_evictions = rc.R.rcs_evictions;
    retries = R.retries rt;
    hops = R.route_hops rt;
    minor_words = gc.Gc.minor_words;
    promoted_words = gc.Gc.promoted_words;
    major_collections = gc.Gc.major_collections;
  }

(* ------------------------------------------------------------------ *)
(* The measured window                                                  *)

let k_get = 'g'
let k_put = 'p'
let k_range = 'r'

type range_result = { r_op : int; r_lo : int; r_hi : int; r_cells : (string * string) list }

type window = {
  n : int;
  kind : Bytes.t;
  key : int array;  (** population index; -1 for a range scan *)
  sched : Float.Array.t;  (** scheduled (virtual) issue time *)
  settled : Float.Array.t;  (** callback time; nan while unsettled *)
  ranges : range_result list;
  slice_rates : float array;  (** settled ops per CPU-second, per slice *)
  depths : int array;  (** event-queue depth at each slice boundary *)
  before : snap;
  after : snap;
  t0 : float;
}

let slices = 10

let run_window shape cluster ~seed ~n ~spans =
  let rt = cluster.rt in
  let engine = R.engine rt in
  let space_size = Space.size (R.space rt) in
  let width = max 1 (space_size / 1000) in
  let rng = Rng.of_int ((seed * 7919) + 17) in
  let zgen = if shape.zipf > 0. then Some (Keygen.Zipf.create ~n:shape.keys ~s:shape.zipf) else None in
  let kind = Bytes.make n k_get in
  let key = Array.make n (-1) in
  let sched = Float.Array.make n 0. in
  let lo_of = Array.make n 0 in
  (* Pre-draw the whole input so the generator's cost stays out of the
     window and the input depends on the seed alone. *)
  let t0 = Engine.now engine +. 0.01 in
  let t = ref t0 in
  for i = 0 to n - 1 do
    t := !t +. Rng.exponential rng ~rate:shape.rate;
    Float.Array.set sched i !t;
    let u = Rng.float rng in
    if u < shape.range_share then begin
      Bytes.set kind i k_range;
      lo_of.(i) <- Rng.int rng (space_size - width)
    end
    else begin
      if u < shape.range_share +. shape.put_share then Bytes.set kind i k_put;
      key.(i) <-
        (match zgen with
        | Some z -> Keygen.Zipf.sample z rng - 1
        | None -> Rng.int rng shape.keys)
    end
  done;
  (* Clients attach to the snodes that stay up: a crash-stopped
     coordinator loses the ops it holds in flight, which would count as
     failures of the client rather than of the cluster. *)
  let victim = 2 mod shape.snodes in
  let via =
    Array.init n (fun _ ->
        if not shape.crash then Rng.int rng shape.snodes
        else
          let v = Rng.int rng (shape.snodes - 1) in
          if v >= victim then v + 1 else v)
  in
  let duration = !t -. t0 in
  let settled = Float.Array.make n Float.nan in
  let w_ranges = ref [] in
  let done_n = ref 0 in
  let settle i = Float.Array.set settled i (Engine.now engine); incr done_n in
  let issue i =
    let via = via.(i) in
    let c = Bytes.get kind i in
    if c = k_range then begin
      let lo = lo_of.(i) in
      let hi = lo + width in
      R.range_get rt ~via ~lo ~hi (fun cells ->
          settle i;
          w_ranges := { r_op = i; r_lo = lo; r_hi = hi; r_cells = cells } :: !w_ranges)
    end
    else begin
      let k = Keygen.Population.nth cluster.pop key.(i) in
      if c = k_put then
        R.put rt ~via ~key:k ~value:(window_value i) ~on_done:(fun () -> settle i) ()
      else R.get rt ~via ~key:k (fun _ -> settle i)
    end
  in
  (* Open loop: arrival [i] issues op [i] and schedules arrival [i + 1],
     whatever the state of earlier ops. *)
  let rec arrive i () =
    if Spans.enabled spans then Spans.with_ spans "snode.issue" (fun () -> issue i)
    else issue i;
    if i + 1 < n then Engine.at engine ~time:(Float.Array.get sched (i + 1)) (arrive (i + 1))
  in
  if n > 0 then Engine.at engine ~time:(Float.Array.get sched 0) (arrive 0);
  let at frac f = Engine.at engine ~time:(t0 +. (frac *. duration)) f in
  if shape.crash then begin
    at (1. /. 3.) (fun () -> R.crash_snode rt victim);
    at (2. /. 3.) (fun () -> R.restart_snode rt victim)
  end;
  if shape.join then
    at 0.5 (fun () -> R.create_vnode rt ~id:(vid shape shape.vnodes) ());
  for k = 1 to shape.ae_rounds do
    at ((float_of_int k -. 0.5) /. float_of_int shape.ae_rounds) (fun () -> R.anti_entropy rt)
  done;
  if shape.balance then R.arm_balancer rt ~until:(t0 +. duration);
  let before = snap rt in
  let slice_rates = Array.make slices 0. in
  let depths = Array.make slices 0 in
  for s = 1 to slices do
    let c0 = Sys.time () and d0 = !done_n in
    Spans.with_ spans "runtime.run" (fun () ->
        if s < slices then
          R.run ~until:(t0 +. (duration *. float_of_int s /. float_of_int slices)) rt
        else R.run rt);
    let cpu = Sys.time () -. c0 in
    slice_rates.(s - 1) <- float_of_int (!done_n - d0) /. Float.max cpu 1e-6;
    depths.(s - 1) <- Engine.pending engine
  done;
  let after = snap rt in
  {
    n;
    kind;
    key;
    sched;
    settled;
    ranges = List.rev !w_ranges;
    slice_rates;
    depths;
    before;
    after;
    t0;
  }
