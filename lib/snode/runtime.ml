open Dht_core
open Dht_hashspace
module Engine = Dht_event_sim.Engine
module Network = Dht_event_sim.Network
module Fault = Dht_event_sim.Fault
module Registry = Dht_telemetry.Registry
module Histogram = Dht_telemetry.Histogram
module Trace = Dht_telemetry.Trace
module Rng = Dht_prng.Rng
module Hash = Dht_hashes.Hash
module Versioned = Dht_kv.Versioned
module Placement = Dht_replication.Placement
module Heat = Dht_obsv.Heat
module Balance = Dht_balance
module Vtbl = Hashtbl.Make (Vnode_id)

(* Routing back-off: at most [max_retries] retries of one operation (a
   livelock canary, enforced only on a reliable network with unbounded
   caches), spaced [backoff] seconds apart. *)
let max_retries = 50
let backoff = 1e-3

(* Per-round liveness watchdog of a balancing event. *)
let event_timeout = 1.0

(* Write-ack patience of a quorum put before it hints silent replicas. *)
let handoff_timeout = 0.02

let log_src = Logs.Src.create "dht.snode" ~doc:"Distributed snode runtime"

module Log = (val Logs.src_log log_src : Logs.LOG)

type vnode_local = {
  vid : Vnode_id.t;
  mutable group : Group_id.t;
  mutable spans : Span.t list;
  data : Store.table;  (* authoritative copies *)
}

(* Coordinator-side state of one in-flight quorum collection: a point
   write, a point read, or one leg of a range read. It is met once
   [q_need] distinct snodes are heard: for a write, snodes that stored a
   copy (sloppy W: hinted fallbacks count); for a read or a leg, repliers.
   A read keeps each replier's cell, parallel to [q_heard], and resolves
   by LWW. A fault-free read asks only R members at first and keeps which
   ones, a bit per position in [q_set]. *)
type qkind =
  | Q_put of {
      q_cell : Versioned.cell;
      mutable q_hint : int;  (* queue slot of the hinted-handoff timer *)
      mutable q_fire : unit -> unit;  (* the closure [q_hint] holds *)
    }
  | Q_get of {
      mutable q_cells : Versioned.cell option list;
      mutable q_asked : int;  (* positions asked, a bit each; -1: all *)
      mutable q_slot : int;  (* queue slot of the fallback timer, or -1 *)
      mutable q_ask : unit -> unit;  (* the closure [q_slot] holds *)
    }
  | Q_leg of { q_range : rstate; q_hi : int }
      (* one partition's clipped sub-range, [q_point, q_hi) *)

and qstate = {
  q_token : int;
  q_key : string;  (* [""] for a range leg *)
  q_point : int;
  q_set : int list;  (* replica set resolved at issue time *)
  q_need : int;
  mutable q_heard : int list;  (* distinct snodes heard, latest first *)
  mutable q_done : bool;  (* quorum met *)
  q_kind : qkind;
  (* Causal context captured when the quorum opened, restored by the hint
     and deadline timers so hinted handoff stays inside the op's trace. *)
  q_ctx : (int * int * int) option;
}

(* Coordinator-side state of one in-flight range read: one leg per
   partition intersecting [lo, hi), all merging into one LWW-deduplicated
   accumulator. *)
and rstate = {
  r_token : int;
  mutable r_open : int;  (* legs still short of their quorum *)
  r_legs : (int, qstate) Hashtbl.t;  (* keyed by clipped lo *)
  r_cells : (string, Versioned.cell) Hashtbl.t;  (* LWW accumulator *)
  r_ctx : (int * int * int) option;  (* causal context at issue time *)
}

(* A collection opened under causal context [ctx], nothing heard yet. *)
let open_quorum ~ctx ~token ~key ~point ~set ~need kind =
  { q_token = token; q_key = key; q_point = point; q_set = set;
    q_need = need; q_heard = []; q_done = false; q_kind = kind; q_ctx = ctx }

(* Note that [sid] was heard from; [false] when it was already. *)
let heard q sid =
  let fresh = not (List.mem sid q.q_heard) in
  if fresh then q.q_heard <- sid :: q.q_heard;
  fresh

(* [true] exactly once: when the quorum is first met. *)
let met q =
  let now = (not q.q_done) && List.length q.q_heard >= q.q_need in
  if now then q.q_done <- true;
  now

type snode = {
  sid : int;
  mutable alive : bool;
  mutable down_since : float;  (* crash time, for downtime telemetry *)
  locals : vnode_local Vtbl.t;
  owned : Vnode_id.t Point_map.t;  (* exact local ownership *)
  (* Replica map: span -> replica snodes (owner's snode first). Updated by
     the same epoch-fenced commit that moves a partition, so the copy set
     never straddles a stale LPDR epoch. *)
  rmap : int list Point_map.t;
  (* Hinted handoff owed to crashed replicas: (target snode, key). The
     flush is already in the reliable outbox; the entry survives until the
     target acknowledges it. *)
  hints : (int * string, Versioned.cell ref) Hashtbl.t;
  quorums : (int, qstate) Hashtbl.t;  (* token -> in-flight quorum op *)
  (* Monotonic write-stamp counter: the engine dispatches many events at
     one virtual instant, so [Engine.now] alone cannot order two writes
     this snode stamps in the same tick — the LWW merge would drop the
     second. Durable, like the version stamps it orders. *)
  mutable wseq : int;
  rng : Rng.t;
  (* The placement-change protocol's state (LPDR copies, epoch and
     placement fences, group locks, coordinated and prepared events) and
     what it needs of the runtime. *)
  ho : Handover.t;
  env : Handover.env;
  (* Self-addressed work (routing backoffs, queued operations) that fired
     while the snode was down; drained on restart. Durable, like the rest
     of the protocol state. *)
  parked : Wire.msg Queue.t;
  (* Active load balancing (armed by [create ?balance]). The gossip view
     and directory report table are soft state — reset on crash, like RTT
     estimators — while [lb_version] is durable so post-restart summaries
     still supersede everything gossiped before the crash. *)
  lb_view : Balance.Gossip.t;
  lb_dir : Balance.Directory.t;  (* populated only on directory snodes *)
  lb_is_dir : bool;  (* hash-located, fixed for the cluster's lifetime *)
  mutable lb_version : int;
  mutable lb_last_transfer : float;  (* donor-side transfer rate limit *)
  (* In-flight coordinated range reads, token -> state. *)
  ranges : (int, rstate) Hashtbl.t;
}

type callback =
  | Cb_put of (unit -> unit) option  (* invoked when the write is acked *)
  | Cb_get of (string option -> unit)
  | Cb_remove of (bool -> unit)
  | Cb_range of ((string * string) list -> unit)
      (* key-sorted (key, value) bindings of a completed range read *)

(* How a data operation settled at its origin. *)
type outcome =
  | Acked of [ `Put | `Qput ]  (* owner ack (routed) or W replica acks *)
  | Answered of [ `Get | `Qget ] * string option
  | Scanned of (string * string) list  (* range read complete, key-sorted *)
  | Departed of bool  (* vnode removal done; [false] = refused *)
  | Failed
      (* settled unacknowledged: a put that could not assemble W, a range
         read with every snode down *)
  | Shed  (* refused by admission control before touching any replica *)

(* Operation-history events for external consistency checkers: every data
   operation's invocation and outcome, stamped with the virtual clock. The
   runtime only emits them (through an optional recorder callback); the
   checking lives in [Dht_check]. *)
module Oplog = struct
  type op = Op_put of { key : string; value : string } | Op_get of { key : string }

  type event =
    | Invoke of { token : int; via : int; op : op; at : float }
    | Ack of { token : int; at : float }  (* put acknowledged durable *)
    | Reply of { token : int; value : string option; at : float }
    | Fail of { token : int; at : float }  (* put settled unacknowledged *)
    | Busy of { token : int; at : float }
        (* shed by admission control before touching any replica: like
           [Fail], but additionally guaranteed to have had no effect *)
end

type approach = Local of { vmin : int } | Global

(* Instruments are resolved once at [create] — the registry lookup never
   happens on the message path. [None] when no registry was given, so the
   uninstrumented runtime pays one pointer comparison per site. *)
type instruments = {
  i_hops : Histogram.t;  (* forwarding hops per resolved routed op *)
  i_op_put : Histogram.t;  (* issue-to-ack latency per data op *)
  i_op_get : Histogram.t;
  i_op_remove : Histogram.t;
  i_prepare : Histogram.t;  (* 2PC prepare -> commit, at the coordinator *)
  i_ev_create : Histogram.t;  (* whole balancing event, plan -> complete *)
  i_ev_remove : Histogram.t;
  i_ev_balance : Histogram.t;  (* load-driven hot-partition swaps *)
  i_downtime : Histogram.t;  (* crash -> restart per recovery *)
  i_q_put : Histogram.t;  (* quorum write, issue to W-th ack *)
  i_q_get : Histogram.t;  (* quorum read, issue to R-th reply *)
  i_q_range : Histogram.t;  (* range read, issue to last leg's quorum *)
}

(* One partition's heat accumulators: decayed access counts per traffic
   class, plus a decayed byte rate shared across classes. *)
type heat_entry = {
  h_read : Heat.cell;
  h_write : Heat.cell;
  h_repl : Heat.cell;
  h_bytes : Heat.cell;
}

type t = {
  engine : Engine.t;
  net : Network.t;
  faults : Fault.t option;
  space : Space.t;
  pmin : int;
  vmax : int;  (* group capacity; [max_int] under the global approach *)
  tr : Transport.t;  (* batching, reliable delivery, backpressure *)
  route : Route.t;  (* routing caches, next-hop choice, hop accounting *)
  admission_deadline : float;  (* quorum-op shed threshold; 0 = off *)
  rfactor : int;  (* copies per partition; 1 = no replication *)
  read_quorum : int;  (* R *)
  write_quorum : int;  (* W; R + W > rfactor *)
  store : Store.t;  (* held cells, hash trees, anti-entropy frames *)
  instr : instruments option;
  trace : Trace.t;
  causal : bool;  (* propagate span context on the wire, emit causal events *)
  (* Ambient causal context: (trace id, parent span id, hop count) of the
     message or op-root being processed right now. Saved/restored around
     every dispatch, captured into quorum state and timer closures. *)
  mutable cur : (int * int * int) option;
  mutable next_span : int;  (* runtime-global span counter: parent < child *)
  op_roots : (int, int) Hashtbl.t;  (* token -> root span, while in flight *)
  (* Per-partition heat accounting (EWMA over virtual time), when enabled. *)
  heat : (Span.t, heat_entry) Hashtbl.t option;
  heat_tau : float;
  (* Active load balancing: policy when armed (implies heat accounting). *)
  balance : Balance.Policy.t option;
  (* token -> issue time; maintained only when instrumented or tracing *)
  op_starts : (int, float) Hashtbl.t;
  snodes : snode array;
  callbacks : (int, callback) Hashtbl.t;
  on_created : (unit -> unit) Vtbl.t;  (* newcomer -> create_vnode ?on_done *)
  mutable next_token : int;
  mutable next_event : int;
  (* Event id -> queue slot and callback of its armed watchdog. *)
  watches : (int, int * (unit -> unit)) Hashtbl.t;
  mutable pending : int;
  mutable done_creations : int;
  mutable done_removals : int;
  mutable done_puts : int;
  mutable done_gets : int;
  mutable retried : int;
  mutable sheds : int;  (* quorum ops refused by admission control *)
  mutable busy_rejections : int;  (* Busy replies settled at the origin *)
  mutable crashes : int;
  mutable recoveries : int;
  mutable hints_stored : int;  (* cells parked on a hinted fallback *)
  mutable hints_flushed : int;  (* hints drained to their restarted target *)
  mutable read_repairs : int;  (* stale repliers repaired after a read *)
  mutable done_ranges : int;  (* completed coordinated range reads *)
  mutable lb_transfers : int;  (* completed hot-partition swap events *)
  mutable lb_proposals : int;  (* directory proposals issued *)
  mutable lb_emergencies : int;  (* proposals via the emergency path *)
  mutable lb_skipped : int;  (* proposals dropped by validation/rate limit *)
  mutable lb_reports : int;  (* gossip + directory report messages sent *)
  (* Verification hooks, both passive: [on_commit] fires after a snode has
     fully applied a balancing Commit (audits run there), [recorder] sees
     every data operation's invocation and outcome. *)
  mutable on_commit : (event:int -> snode:int -> unit) option;
  mutable recorder : (Oplog.event -> unit) option;
}

(* Call sites test [recording t] first, so no event is built while no
   recorder is attached. *)
let recording t = Option.is_some t.recorder
let record t ev = match t.recorder with Some f -> f ev | None -> ()

(* ------------------------------------------------------------------ *)
(* Local state operations                                               *)

let local_exn sn vid =
  match Vtbl.find_opt sn.locals vid with
  | Some v -> v
  | None -> failwith "Runtime: vnode expected on this snode"

let install_spans sn v spans =
  v.spans <- spans @ v.spans;
  List.iter (fun s -> Point_map.add sn.owned s v.vid) spans

(* Every placement a snode owns, in table order: what a restart re-learns,
   a refresh round reports and an anti-entropy round pushes. *)
let iter_owned sn f =
  Vtbl.iter (fun vid v -> List.iter (fun s -> f s vid) v.spans) sn.locals

let owned_spans sn =
  List.concat (List.rev (Vtbl.fold (fun _ v acc -> v.spans :: acc) sn.locals []))

(* Donor side of every placement change: give [taken], spans of local
   vnode [v], to [dst] with their keys, and point our own routing cache at
   it. The donation carries the replica set each span gets over the
   group's [members] snodes, for the Prepare_ack. *)
let give t sn v ~members ~dst taken =
  let kept =
    List.filter (fun s -> not (List.exists (fun g -> Span.compare s g = 0) taken)) v.spans
  in
  if List.length kept + List.length taken <> List.length v.spans then
    invalid_arg "Runtime: donor does not own the partitions it gives";
  v.spans <- kept;
  List.iter (fun s -> Point_map.remove sn.owned s) taken;
  (* Keys inside the donated partitions migrate with them. *)
  let data =
    Store.take t.store v.data (fun point ->
        List.exists (fun sp -> Span.contains t.space sp point) taken)
  in
  let reps =
    Placement.replicas ~rfactor:t.rfactor ~n:(Array.length t.snodes)
      ~primary:dst.Vnode_id.snode ~group_snodes:members
  in
  List.iter (fun s -> Route.learn t.route sn.sid s dst) taken;
  { Handover.dst; spans = taken; data; reps }

(* [n] partitions off the head of [v], latest first. *)
let give_count t sn v ~members ~dst n =
  give t sn v ~members ~dst (List.rev (List.filteri (fun i _ -> i < n) v.spans))

let split_all_local t sn v =
  let halves =
    List.concat_map
      (fun s ->
        Point_map.split sn.owned s;
        let a, b = Span.split t.space s in
        [ a; b ])
      v.spans
  in
  v.spans <- halves

(* Stamp a fresh write at this snode: virtual time plus the snode's own
   sequence counter, so two writes stamped in the same engine tick are
   still totally ordered in issue order. *)
let stamp_cell t sn ~value =
  sn.wseq <- sn.wseq + 1;
  Versioned.cell ~value ~ts:(Engine.now t.engine) ~seq:sn.wseq ~origin:sn.sid ()

(* ------------------------------------------------------------------ *)
(* Telemetry                                                            *)

let observing t = t.instr <> None || Trace.enabled t.trace

let note_op_start t token =
  if observing t then Hashtbl.replace t.op_starts token (Engine.now t.engine)

(* Issue-to-completion latency of one data operation, recorded at the
   origin snode when the ack/reply lands. *)
let finish_op t ~kind ~token ~tid =
  match Hashtbl.find_opt t.op_starts token with
  | None -> ()
  | Some t0 ->
      Hashtbl.remove t.op_starts token;
      let dur = Engine.now t.engine -. t0 in
      (match t.instr with
      | Some i ->
          let h =
            match kind with
            | `Put -> i.i_op_put
            | `Get -> i.i_op_get
            | `Remove -> i.i_op_remove
            | `Qput -> i.i_q_put
            | `Qget -> i.i_q_get
            | `Qrange -> i.i_q_range
          in
          Histogram.observe h dur
      | None -> ());
      if Trace.enabled t.trace then
        let op =
          match kind with
          | `Put -> "put"
          | `Get -> "get"
          | `Remove -> "remove"
          | `Qput -> "qput"
          | `Qget -> "qget"
          | `Qrange -> "qrange"
        in
        Trace.span t.trace ~ts:t0 ~dur ~tid ~name:"op"
          [ ("op", Trace.Str op); ("token", Trace.Int token) ]

(* ---------------- causal tracing ---------------- *)

(* Span ids come from one runtime-global monotonic counter, so a child is
   always younger than its parent — the span log is acyclic by
   construction and the analyzer's upward walks terminate. *)
let fresh_span t =
  let s = t.next_span in
  t.next_span <- s + 1;
  s

(* Run [f] with the ambient causal context set to [ctx]; used by timer
   closures (hint/deadline/backoff) that fire outside any message
   dispatch but act on behalf of a traced op. *)
let with_ctx t ctx f =
  if not t.causal then f ()
  else begin
    let saved = t.cur in
    t.cur <- ctx;
    f ();
    t.cur <- saved
  end

(* Open an op's causal tree: emit its root span and make it the ambient
   context for the issuing closure. The trace id is the op token, so
   causal trees are directly joinable with the history recorder. *)
let causal_root t ~token ~tid ~op f =
  if not t.causal then f ()
  else begin
    let root = fresh_span t in
    Hashtbl.replace t.op_roots token root;
    Trace.instant t.trace ~ts:(Engine.now t.engine) ~tid ~cat:"causal"
      ~name:"op.begin"
      [ ("trace", Trace.Int token); ("span", Trace.Int root);
        ("op", Trace.Str op) ];
    let saved = t.cur in
    t.cur <- Some (token, root, 0);
    f ();
    t.cur <- saved
  end

(* Close an op's causal tree, parented on whichever span settled it (the
   final ack's receive edge when the completion happens inside a message
   dispatch, else the op root). *)
let causal_op_end t ~token ~tid ~outcome =
  if t.causal then
    match Hashtbl.find_opt t.op_roots token with
    | None -> ()
    | Some root ->
        Hashtbl.remove t.op_roots token;
        let parent =
          match t.cur with
          | Some (tr, sp, _) when tr = token -> sp
          | _ -> root
        in
        Trace.instant t.trace ~ts:(Engine.now t.engine) ~tid ~cat:"causal"
          ~name:"op.end"
          [ ("trace", Trace.Int token); ("span", Trace.Int (fresh_span t));
            ("parent", Trace.Int parent); ("outcome", Trace.Str outcome) ]

(* The one place a data operation settles at its origin: latency span,
   causal [op.end], history record, completion counter, [pending] slot
   and callback, in that order. A failed or shed op records no latency
   and its callback hears nothing: a put's [on_done] never fires, a get
   answers [None], a range [[]]. [ctx] is the op's causal context when
   the settle runs outside its own dispatch (a timer). A [Busy] for a
   token already settled is ignored. *)
let settle t ?(ctx = t.cur) ~tid ~token outcome =
  match Hashtbl.find_opt t.callbacks token with
  | None -> (
      match outcome with
      | Shed -> ()
      | _ -> failwith "Runtime: settle of an unknown token")
  | Some cb ->
      (match (cb, outcome) with
      | Cb_put _, (Acked _ | Failed | Shed)
      | Cb_get _, (Answered _ | Shed)
      | Cb_range _, (Scanned _ | Failed)
      | Cb_remove _, Departed _ ->
          ()
      | _ -> failwith "Runtime: bad operation token");
      Hashtbl.remove t.callbacks token;
      (match outcome with
      | Acked kind -> finish_op t ~kind ~token ~tid
      | Answered (kind, _) -> finish_op t ~kind ~token ~tid
      | Scanned _ -> finish_op t ~kind:`Qrange ~token ~tid
      | Departed _ -> finish_op t ~kind:`Remove ~token ~tid
      | Failed | Shed -> Hashtbl.remove t.op_starts token);
      let label =
        match outcome with Failed -> "fail" | Shed -> "busy" | _ -> "ok"
      in
      if t.causal then
        with_ctx t ctx (fun () -> causal_op_end t ~token ~tid ~outcome:label);
      (* Range reads and removals stay out of the operation history. *)
      (if recording t then
         let at = Engine.now t.engine in
         match (cb, outcome) with
         | (Cb_range _ | Cb_remove _), _ -> ()
         | _, Acked _ -> record t (Oplog.Ack { token; at })
         | _, Answered (_, value) -> record t (Oplog.Reply { token; value; at })
         | _, Shed -> record t (Oplog.Busy { token; at })
         | _, (Failed | Scanned _ | Departed _) ->
             record t (Oplog.Fail { token; at }));
      (match outcome with
      | Acked _ -> t.done_puts <- t.done_puts + 1
      | Answered _ -> t.done_gets <- t.done_gets + 1
      | Scanned _ -> t.done_ranges <- t.done_ranges + 1
      | Departed _ -> t.done_removals <- t.done_removals + 1
      | Shed -> t.busy_rejections <- t.busy_rejections + 1
      | Failed -> ());
      t.pending <- t.pending - 1;
      match (cb, outcome) with
      | Cb_put (Some f), Acked _ -> f ()
      | Cb_get k, Answered (_, v) -> k v
      | Cb_get k, _ -> k None
      | Cb_range k, Scanned r -> k r
      | Cb_range k, _ -> k []
      | Cb_remove k, Departed ok -> k ok
      | (Cb_put _ | Cb_remove _), _ -> ()

(* Wrap an outgoing protocol message in the on-wire span context when an
   op's context is ambient: one [msg.send] event marks the edge entering
   the transmission path (queue wait starts here). *)
let causal_wrap t ~src ~dst msg =
  match t.cur with
  | Some (trace, parent, hop) when t.causal ->
      let span = fresh_span t in
      Trace.instant t.trace ~ts:(Engine.now t.engine) ~tid:src ~cat:"causal"
        ~name:"msg.send"
        [ ("trace", Trace.Int trace); ("span", Trace.Int span);
          ("parent", Trace.Int parent); ("src", Trace.Int src);
          ("dst", Trace.Int dst); ("tag", Trace.Str (Wire.describe msg));
          ("hop", Trace.Int hop); ("bytes", Trace.Int (Wire.size_bytes msg)) ];
      Wire.Traced { trace; span; hop = hop + 1; payload = msg }
  | _ -> msg

(* One actual transmission of every traced edge inside [msg] (which may be
   a Req frame and/or Batch envelope): same trace id, fresh span id per
   attempt — retransmissions are individually visible in the span log. *)
let rec emit_xmit t ~tid ~attempt = function
  | Wire.Traced { trace; span; _ } ->
      Trace.instant t.trace ~ts:(Engine.now t.engine) ~tid ~cat:"causal"
        ~name:"msg.xmit"
        [ ("trace", Trace.Int trace); ("span", Trace.Int (fresh_span t));
          ("parent", Trace.Int span); ("attempt", Trace.Int attempt) ]
  | Wire.Batch parts -> List.iter (emit_xmit t ~tid ~attempt) parts
  | Wire.Req { payload; _ } -> emit_xmit t ~tid ~attempt payload
  | _ -> ()

(* ---------------- heat accounting ---------------- *)

(* Charge one access against the partition covering [point], as seen by
   the executing snode's replica map. Partition granularity follows the
   live placement: a split partition accumulates under its new spans. *)
let heat_charge t sn ~point ~kind ~bytes =
  match t.heat with
  | None -> ()
  | Some tbl -> (
      match Point_map.find_point sn.rmap point with
      | exception Not_found -> ()
      | span, _ ->
          let e =
            match Hashtbl.find_opt tbl span with
            | Some e -> e
            | None ->
                let e =
                  {
                    h_read = Heat.cell ~tau:t.heat_tau;
                    h_write = Heat.cell ~tau:t.heat_tau;
                    h_repl = Heat.cell ~tau:t.heat_tau;
                    h_bytes = Heat.cell ~tau:t.heat_tau;
                  }
                in
                Hashtbl.add tbl span e;
                e
          in
          let now = Engine.now t.engine in
          let cell =
            match kind with
            | `Read -> e.h_read
            | `Write -> e.h_write
            | `Repl -> e.h_repl
          in
          Heat.charge cell ~now ();
          Heat.charge e.h_bytes ~now ~weight:(float_of_int bytes) ())

(* Charge one stored cell, key and versioned value, to its partition. *)
let charge_cell t sn ~kind ~point ~key cell =
  heat_charge t sn ~point ~kind ~bytes:(String.length key + Versioned.size_bytes cell)

(* Accept-and-store one replicated cell ({!Store.store}), charged first. *)
let accept t sn ~kind ~point ~key cell =
  charge_cell t sn ~kind ~point ~key cell;
  ignore (Store.store t.store sn.sid ~point ~key cell)

(* Total decayed heat of one partition (reads + writes + replica traffic),
   0 when the partition was never accessed or heat accounting is off. *)
let span_heat t span =
  match t.heat with
  | None -> 0.
  | Some tbl -> (
      match Hashtbl.find_opt tbl span with
      | None -> 0.
      | Some e ->
          let now = Engine.now t.engine in
          Heat.value e.h_read ~now +. Heat.value e.h_write ~now
          +. Heat.value e.h_repl ~now)

(* Hottest/coldest pick among a vnode's partitions; ties keep the span
   that sorts first, so the choice is deterministic. *)
let pick_span t ~hottest spans =
  match spans with
  | [] -> invalid_arg "Runtime: pick_span on a partitionless vnode"
  | first :: rest ->
      let better s best =
        let hs = span_heat t s and hb = span_heat t best in
        if hs = hb then Span.compare s best < 0
        else if hottest then hs > hb
        else hs < hb
      in
      List.fold_left (fun best s -> if better s best then s else best) first rest

(* ------------------------------------------------------------------ *)
(* Messaging                                                            *)

(* Every protocol message leaves through the transport (batching,
   reliable delivery, backpressure: {!Transport}), which hands each fresh
   message to [handle] at its destination. *)
let send t ~src ~dst msg =
  Transport.send t.tr ~src ~dst
    (if t.causal then causal_wrap t ~src ~dst msg else msg)

(* Process a message locally, as if self-delivered. Work addressed to a
   down snode is parked (durably) and drained on restart. *)
let rec deliver_local t sn msg =
  if sn.alive then handle t sn ~from:sn.sid msg
  else
    (* Park as a traced self-edge when an op context is ambient: the drain
       on restart then logs a receive, so the crash wait shows up as queue
       time on the op's critical path instead of vanishing. *)
    Queue.add (if t.causal then causal_wrap t ~src:sn.sid ~dst:sn.sid msg else msg)
      sn.parked

(* ---------------- routing ---------------- *)

and route_or_forward t sn (point, hops, retries, origin, op) =
  let ctx = t.cur in
  match Point_map.find_owner_exn sn.owned point with
  | vid -> execute_op t sn ~owner:vid ~point ~origin ~retries ~hops op
  | exception Not_found ->
      if hops >= Route.max_hops t.route then begin
        t.retried <- t.retried + 1;
        if Trace.enabled t.trace then
          Trace.instant t.trace ~ts:(Engine.now t.engine) ~tid:sn.sid
            ~name:"route.backoff"
            [ ("point", Trace.Int point); ("retries", Trace.Int (retries + 1)) ];
        let msg =
          Wire.Routed { point; hops = 0; retries = retries + 1; origin; op }
        in
        if t.faults = None && not (Route.bounded t.route) then begin
          (* The retry budget is a livelock canary, meaningful only on a
             reliable network with legacy unbounded caches: under faults an
             operation legitimately backs off for as long as a crashed
             snode stays down, and under bounded routing an origin's
             trusted entry can go stale even with no faults at all. *)
          if retries >= max_retries then
            failwith "Runtime: routing failed to converge";
          Engine.schedule t.engine ~delay:backoff (fun () ->
              with_ctx t ctx (fun () -> deliver_local t sn msg))
        end
        else begin
          (* Crash recovery can leave a permanent cycle among stale
             caches: a restarted snode's rebuilt cache points back at the
             bootstrap placement, and once balancing stops no commit
             repairs it. Restart the walk at a random snode — the owner's
             snode resolves the point locally, so the retry terminates
             with probability 1 whatever the cycle structure. *)
          let via = Rng.int sn.rng (Array.length t.snodes) in
          (* Exponential backoff, capped at 128 base delays: a walk stuck
             in a stale-advice cycle should wait for the next refresh
             round to repair the stewards rather than spin restarts
             through the same cycle at full tilt. *)
          let delay =
            backoff *. (2. ** float_of_int (min retries 7))
          in
          Engine.schedule t.engine ~delay (fun () ->
              with_ctx t ctx (fun () ->
                  if via = sn.sid || not sn.alive then deliver_local t sn msg
                  else send t ~src:sn.sid ~dst:via msg))
        end
      end
      else begin
        let dst = Route.next_hop t.route ~sid:sn.sid ~hops point in
        let msg = Wire.Routed { point; hops = hops + 1; retries; origin; op } in
        if dst = sn.sid then
          (* Our own cache points at us but we do not own the point: the
             placement is in flight; back off. *)
          Engine.schedule t.engine ~delay:backoff (fun () ->
              with_ctx t ctx (fun () -> deliver_local t sn msg))
        else send t ~src:sn.sid ~dst msg
      end

and execute_op t sn ~owner ~point ~origin ~retries ~hops op =
  Option.iter (fun i -> Histogram.observe i.i_hops (float_of_int hops)) t.instr;
  Route.executed t.route ~hops;
  match op with
  | Wire.Op_put { key; value; token } ->
      (* Single-copy write: unconditional replace, stamped at the owner.
         Delivery order IS the write order here (legacy semantics), and
         the stamp's sequence component keeps that order visible to any
         later LWW merge (anti-entropy, read repair). *)
      let v = local_exn sn owner in
      let cell = stamp_cell t sn ~value in
      heat_charge t sn ~point ~kind:`Write
        ~bytes:(String.length key + String.length value);
      ignore (Store.hold ~lww:false t.store v.data ~point ~key cell);
      (* Replication on but the write arrived on the routed single-copy
         path (issued while the whole cluster was down, then parked):
         seed the other replicas immediately so the acked write does not
         sit on one copy until an anti-entropy round finds it. Their acks
         find no quorum state here and are ignored. *)
      if t.rfactor > 1 then
        (match Point_map.find_point sn.rmap point with
        | _, set ->
            List.iter
              (fun sid ->
                if sid <> sn.sid then
                  send t ~src:sn.sid ~dst:sid
                    (Wire.Repl_put { token; key; point; cell }))
              set
        | exception Not_found -> ());
      send t ~src:sn.sid ~dst:origin
        (Wire.Put_ack { token; hint = None })
  | Wire.Op_get { key; token } ->
      let v = local_exn sn owner in
      heat_charge t sn ~point ~kind:`Read ~bytes:(String.length key);
      let value = Store.value v.data key in
      send t ~src:sn.sid ~dst:origin
        (Wire.Get_reply { token; value; hint = None })
  | Wire.Op_sync { key; cell } ->
      (* Anti-entropy orphan coming home: merge, no reply. *)
      accept t sn ~kind:`Repl ~point ~key cell
  | Wire.Op_create { newcomer } -> (
      (* The owner of the point is the victim vnode; its group is the
         victim group. Hand the request to that group's manager. *)
      let v = local_exn sn owner in
      match Handover.lpdr sn.ho v.group with
      | None ->
          (* Transient: the group identity is switching (between Prepare
             and Commit). Back off and retry the lookup. *)
          t.retried <- t.retried + 1;
          if t.faults = None && retries >= max_retries then
            failwith "Runtime: group resolution failed to converge";
          Engine.schedule t.engine ~delay:backoff (fun () ->
              deliver_local t sn
                (Wire.Routed
                   { point; hops = 0; retries = retries + 1; origin; op }))
      | Some _ ->
          (* Hand the request to the group's manager (maybe ourselves). *)
          let msg = Wire.Create_at_group { group = v.group; point; newcomer; origin } in
          run t sn (Handover.Msg { from = sn.sid; msg }))

(* ---------------- quorum coordinator ---------------- *)

(* Deadline-aware admission of a quorum op over replica [set]: [true]
   when [need] replies look reachable in time. Otherwise the op is
   refused before touching any replica: an explicit [Busy] to the origin
   settles it immediately — never a silent drop, and since no copy was
   written a shed op trivially cannot lose an acked write. *)
and admit_quorum t sn ~token ~origin ~set ~need =
  if
    t.admission_deadline > 0.
    && Transport.admission_estimate t.tr ~src:sn.sid ~set ~need
       > t.admission_deadline
  then begin
    t.sheds <- t.sheds + 1;
    if Trace.enabled t.trace then
      Trace.instant t.trace ~ts:(Engine.now t.engine) ~tid:sn.sid
        ~name:"admission.shed" [ ("token", Trace.Int token) ];
    send t ~src:sn.sid ~dst:origin (Wire.Busy { token });
    false
  end
  else true

and start_qput t sn ~token ~key ~point ~set cell =
  let q =
    open_quorum ~ctx:t.cur ~token ~key ~point ~set ~need:t.write_quorum
      (Q_put { q_cell = cell; q_hint = -1; q_fire = ignore })
  in
  Hashtbl.replace sn.quorums token q;
  (* Sloppy-quorum patience: give the replicas [handoff_timeout] to ack,
     then hint the silent ones away. Armed even without a fault plan —
     crashes can be injected manually ([crash_snode]), and the timer is
     cleared as soon as every copy lands. *)
  (match q.q_kind with
  | Q_put p ->
      p.q_fire <- (fun () -> fire_hints t sn q);
      p.q_hint <-
        Engine.push t.engine
          ~time:(Engine.now t.engine +. handoff_timeout)
          p.q_fire
  | Q_get _ | Q_leg _ -> ());
  ask t sn q (Wire.Repl_put { token; key; point; cell }) (-1) 0 set

(* Ask the members of [q]'s replica set, from position [i] on, whose
   position has a bit in [mask] (every member when [mask] is -1), in set
   order: the others by [msg], ourselves by answering on the spot. *)
and ask t sn q msg mask i = function
  | [] -> ()
  | sid :: rest ->
      if mask = -1 || mask land (1 lsl i) <> 0 then
        if sid = sn.sid then answer_local t sn q
        else send t ~src:sn.sid ~dst:sid msg;
      ask t sn q msg mask (i + 1) rest

and answer_local t sn q =
  let point = q.q_point and key = q.q_key in
  match q.q_kind with
  | Q_put p ->
      accept t sn ~kind:`Write ~point ~key p.q_cell;
      qput_record t sn q sn.sid
  | Q_get _ ->
      heat_charge t sn ~point ~kind:`Read ~bytes:(String.length key);
      qget_record t sn q sn.sid (Store.lookup t.store sn.sid ~point ~key)
  | Q_leg { q_hi; _ } ->
      let cells = Store.range t.store sn.sid ~lo:point ~hi:q_hi in
      heat_charge t sn ~point ~kind:`Read ~bytes:(Wire.cells_size cells);
      leg_record t sn q ~sid:sn.sid cells

and qput_record t sn q sid =
  if heard q sid then begin
    if met q then settle t ~tid:sn.sid ~token:q.q_token (Acked `Qput);
    (* Every copy placed: nothing left for the hint timer to cover. *)
    if q.q_done && List.length q.q_heard >= List.length q.q_set then
      qput_finalize t sn q
  end

(* The quorum is closed: its hint timer's queue entry stops holding [q]
   (a no-op once the timer fired, as its slot may hold another entry). *)
and qput_finalize t sn q =
  (match q.q_kind with
  | Q_put p -> Engine.clear t.engine p.q_hint p.q_fire
  | Q_get _ | Q_leg _ -> ());
  Hashtbl.remove sn.quorums q.q_token

(* The hinted-handoff timer fired with some replicas still silent: park
   their copy on the next ring successor outside the replica set. The
   fallback acks toward W (sloppy quorum) and owes the silent target a
   [Hint_flush], which the reliable layer retries until the target
   restarts. *)
and fire_hints t sn q =
  if Hashtbl.mem sn.quorums q.q_token then begin
    (if sn.alive then
       with_ctx t q.q_ctx @@ fun () ->
       match q.q_kind with
       | Q_get _ | Q_leg _ -> ()
       | Q_put { q_cell; _ } ->
           let n = Array.length t.snodes in
           let chosen = ref [] in
           List.iter
             (fun target ->
               if not (List.mem target q.q_heard) then begin
                 let avoid = q.q_set @ q.q_heard @ !chosen in
                 match Placement.successor ~n ~avoid ~start:target with
                 | None -> ()
                 | Some fb ->
                     chosen := fb :: !chosen;
                     if Trace.enabled t.trace then
                       Trace.instant t.trace ~ts:(Engine.now t.engine)
                         ~tid:sn.sid ~name:"repl.hint"
                         [ ("target", Trace.Int target); ("via", Trace.Int fb) ];
                     if fb = sn.sid then begin
                       (* We are our own fallback: park locally. *)
                       accept t sn ~kind:`Repl ~point:q.q_point ~key:q.q_key q_cell;
                       park_hint t sn ~target ~key:q.q_key ~point:q.q_point
                         q_cell;
                       qput_record t sn q sn.sid
                     end
                     else
                       send t ~src:sn.sid ~dst:fb
                         (Wire.Repl_hinted
                            {
                              token = q.q_token;
                              target;
                              key = q.q_key;
                              point = q.q_point;
                              cell = q_cell;
                            })
               end)
             q.q_set);
    (* The hints ack toward W through live fallbacks; when those cannot
       exist ([Placement.successor] exhausted the ring, a fallback down
       with no recovery coming, or we crashed ourselves) nothing else
       will ever close this quorum — give it one more window, then
       settle it. *)
    Engine.schedule t.engine ~delay:handoff_timeout (fun () ->
        qput_deadline t sn q)
  end

(* Park a hint owed to [target]: keep the freshest cell under the single
   (target, key) binding and count it exactly once — a second hint for
   the same binding merges instead of double-counting, so one [Hint_ack]
   settles it and [hints_stored]/[hints_flushed] stay matched. *)
and park_hint t sn ~target ~key ~point cell =
  let cell =
    match Hashtbl.find_opt sn.hints (target, key) with
    | Some s ->
        let merged = Versioned.merge ~mine:!s ~theirs:cell in
        s := merged;
        merged
    | None ->
        t.hints_stored <- t.hints_stored + 1;
        Hashtbl.add sn.hints (target, key) (ref cell);
        cell
  in
  send t ~src:sn.sid ~dst:target (Wire.Hint_flush { key; point; cell })

(* The post-hint deadline fired with the quorum state still open. If W
   was met, only the all-copies cleanup is outstanding and the missing
   replicas are owed through [sn.hints] — drop the state. Otherwise
   neither replicas nor fallbacks could assemble W: fail the write rather
   than strand its callback and [t.pending] entry forever. The dropped
   callback is never invoked, so the write counts as unacknowledged. *)
and qput_deadline t sn q =
  if Hashtbl.mem sn.quorums q.q_token then
    if q.q_done then qput_finalize t sn q
    else begin
      Transport.note_timeout t.tr;
      if Trace.enabled t.trace then
        Trace.instant t.trace ~ts:(Engine.now t.engine) ~tid:sn.sid
          ~name:"repl.qput.abort" [ ("token", Trace.Int q.q_token) ];
      settle t ~ctx:q.q_ctx ~tid:sn.sid ~token:q.q_token Failed;
      qput_finalize t sn q
    end

(* A get asks its replica set. Under a fault plan it asks every member:
   the spare request is insurance against loss, jitter and a crash nobody
   has detected yet (asking only R there made the slower of two replies
   lose to the second of three, and stalled reads on a crash-stopped
   replica for hundreds of milliseconds). Without one it asks R members
   (Dynamo's R-of-N read): ourselves, when we hold a replica, and the
   others whose envelopes leave soonest. If the quorum is still open
   after [handoff_timeout], the rest are asked too, so a crash-stopped
   replica among the first R delays the read instead of stranding it. *)
and start_qget t sn ~token ~key ~point ~set =
  let q =
    open_quorum ~ctx:t.cur ~token ~key ~point ~set ~need:t.read_quorum
      (Q_get { q_cells = []; q_asked = -1; q_slot = -1; q_ask = ignore })
  in
  Hashtbl.replace sn.quorums token q;
  let msg = Wire.Repl_get { token; key; point } in
  let n = List.length set in
  match q.q_kind with
  | Q_get g when t.faults = None && n < Sys.int_size - 1 ->
      let local = if List.mem sn.sid set then 1 else 0 in
      g.q_asked <- soonest t sn ~set (t.read_quorum - local) 0 0 set;
      ask t sn q msg g.q_asked 0 set;
      if (not q.q_done) && g.q_asked <> (1 lsl n) - 1 then begin
        g.q_ask <- (fun () -> qget_fallback t sn q);
        g.q_slot <-
          Engine.push t.engine
            ~time:(Engine.now t.engine +. handoff_timeout)
            g.q_ask
      end
  | _ -> ask t sn q msg (-1) 0 set

(* [mask] plus a bit for each position of [set], from [i] on, that a
   fault-free get asks: our own, and the [k] other members whose
   envelopes leave soonest ({!Transport.departs_before}), ties in set
   order. Plain recursion over the list, so choosing allocates nothing. *)
and soonest t sn ~set k mask i = function
  | [] -> mask
  | sid :: rest ->
      let pick = sid = sn.sid || ahead t sn ~d:sid ~di:i 0 0 set < k in
      let mask = if pick then mask lor (1 lsl i) else mask in
      soonest t sn ~set k mask (i + 1) rest

(* [n] plus how many members of the set, from position [j] on, other than
   us leave before [d], which sits at position [di]. *)
and ahead t sn ~d ~di n j = function
  | [] -> n
  | sid :: rest ->
      let before =
        sid <> sn.sid && j <> di
        && (Transport.departs_before t.tr ~src:sn.sid sid d
           || (j < di && not (Transport.departs_before t.tr ~src:sn.sid d sid)))
      in
      ahead t sn ~d ~di (if before then n + 1 else n) (j + 1) rest

(* The fallback timer of a fault-free get fired with its quorum still
   open: ask the members not asked yet. *)
and qget_fallback t sn q =
  match q.q_kind with
  | Q_get g when sn.alive && Hashtbl.mem sn.quorums q.q_token ->
      let mask = lnot g.q_asked in
      g.q_asked <- -1;
      with_ctx t q.q_ctx @@ fun () ->
      ask t sn q
        (Wire.Repl_get { token = q.q_token; key = q.q_key; point = q.q_point })
        mask 0 q.q_set
  | _ -> ()

and qget_record t sn q sid cell =
  match q.q_kind with
  | Q_put _ | Q_leg _ -> ()
  | Q_get g ->
      if heard q sid then begin
        g.q_cells <- cell :: g.q_cells;
        if met q then begin
          (* LWW winner among the R replies. *)
          let winner =
            List.fold_left
              (fun acc c ->
                match (acc, c) with
                | None, c -> c
                | Some a, Some b -> Some (Versioned.merge ~mine:a ~theirs:b)
                | Some a, None -> Some a)
              None g.q_cells
          in
          (* Read repair: push the winner to stale or empty repliers. *)
          (match winner with
          | None -> ()
          | Some w ->
              List.iter2
                (fun rsid c ->
                  let stale =
                    match c with
                    | None -> true
                    | Some c ->
                        Versioned.newer w.Versioned.version c.Versioned.version
                  in
                  if stale then begin
                    t.read_repairs <- t.read_repairs + 1;
                    if rsid = sn.sid then
                      ignore
                        (Store.store t.store sn.sid ~point:q.q_point ~key:q.q_key w)
                    else
                      send t ~src:sn.sid ~dst:rsid
                        (Wire.Repl_repair
                           { key = q.q_key; point = q.q_point; cell = w })
                  end)
                q.q_heard g.q_cells);
          settle t ~tid:sn.sid ~token:q.q_token
            (Answered (`Qget, Option.map (fun c -> c.Versioned.value) winner));
          (* As [qput_finalize]: the fallback's entry stops holding [q]. *)
          if g.q_slot >= 0 then Engine.clear t.engine g.q_slot g.q_ask;
          Hashtbl.remove sn.quorums q.q_token
        end
      end

(* ---------------- range reads ---------------- *)

(* Coordinated range read: one leg per partition intersecting [lo, hi)
   (resolved against this coordinator's replica map), each leg fanned out
   to the partition's replica set and complete at R distinct replies;
   cells merge by LWW across legs and repliers, so the result is
   duplicate-free by construction. Never shed by admission control: a
   Busy range would be indistinguishable from an empty one. *)
and start_range t sn ~token ~lo ~hi =
  let st =
    {
      r_token = token;
      r_open = 0;
      r_legs = Hashtbl.create 8;
      r_cells = Hashtbl.create 16;
      r_ctx = t.cur;
    }
  in
  Hashtbl.replace sn.ranges token st;
  (* Every leg opens before any fans out; the map lists spans by
     increasing start, so legs fan out by increasing lo. *)
  let legs =
    List.filter_map
      (fun (span, set) ->
        let s = Span.start t.space span and e = Span.stop t.space span in
        if s < hi && e > lo then begin
          let lo = max s lo and hi = min e hi in
          let leg =
            open_quorum ~ctx:t.cur ~token ~key:"" ~point:lo ~set
              ~need:(max 1 (min t.read_quorum (List.length set)))
              (Q_leg { q_range = st; q_hi = hi })
          in
          Hashtbl.replace st.r_legs lo leg;
          st.r_open <- st.r_open + 1;
          Some (leg, Wire.Range_get { token; lo; hi })
        end
        else None)
      (Point_map.to_list sn.rmap)
  in
  if st.r_open = 0 then finish_range t sn st
  else List.iter (fun (leg, msg) -> ask t sn leg msg (-1) 0 leg.q_set) legs

and leg_record t sn q ~sid cells =
  match q.q_kind with
  | Q_put _ | Q_get _ -> ()
  | Q_leg { q_range = st; _ } ->
      if heard q sid then begin
        List.iter
          (fun (key, cell) ->
            Hashtbl.replace st.r_cells key
              (Versioned.merge_opt (Hashtbl.find_opt st.r_cells key) cell))
          cells;
        if met q then begin
          st.r_open <- st.r_open - 1;
          if st.r_open = 0 then finish_range t sn st
        end
      end

and finish_range t sn st =
  Hashtbl.remove sn.ranges st.r_token;
  let result =
    Hashtbl.fold
      (fun key cell acc -> (key, cell.Versioned.value) :: acc)
      st.r_cells []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  settle t ~ctx:st.r_ctx ~tid:sn.sid ~token:st.r_token (Scanned result)

(* ---------------- anti-entropy ---------------- *)

(* Probe every replica map entry covering [spans] where we are the
   primary, toward each other replica or only [target] (the recovery path
   behind [Ae_request]). Replicas whose frame differs walk the tree down
   to the divergent leaves, or, for a span of at most [mt_threshold]
   cells, answer the root frame as a leaf; {!Store.answer} carries the
   exchange. *)
and ae_push t sn ?target spans =
  let probes =
    List.concat_map
      (fun span ->
        List.concat_map
          (fun (s', set) ->
            match set with
            | head :: rest when head = sn.sid ->
                let span = if Span.level s' > Span.level span then s' else span in
                List.filter
                  (fun sid -> sid <> sn.sid && (target = None || target = Some sid))
                  rest
                |> List.map (fun sid -> (sid, span))
            | _ -> [])
          (Point_map.overlapping sn.rmap span))
      spans
  in
  List.iter
    (fun (dst, msg) -> send t ~src:sn.sid ~dst msg)
    (Store.push t.store sn.sid probes)

(* One full anti-entropy round for this snode: probe every owned span to
   its replicas, and route cells we hold for partitions we are no longer
   a replica of back to their owner. *)
and ae_snode t sn =
  ae_push t sn (owned_spans sn);
  List.iter
    (fun (key, point, cell) ->
      deliver_local t sn
        (Wire.Routed
           {
             point;
             hops = 0;
             retries = 0;
             origin = sn.sid;
             op = Wire.Op_sync { key; cell };
           }))
    (Store.take_orphans t.store sn.sid (fun point ->
         match Point_map.find_point sn.rmap point with
         | _, set -> not (List.mem sn.sid set)
         | exception Not_found -> true))

(* ---------------- placement changes ---------------- *)

(* Feed one input to the snode's {!Handover} state and carry out the
   actions it returns, in order. *)
and run t sn input = exec_all t sn (Handover.step sn.env sn.ho input)

and exec_all t sn = function
  | [] -> ()
  | a :: rest ->
      exec t sn a;
      exec_all t sn rest

and exec t sn = function
  | Handover.Send (dst, msg) -> send t ~src:sn.sid ~dst msg
  | Handover.Local msg -> deliver_local t sn msg
  | Handover.Resume_next group -> run t sn (Handover.Resume group)
  | Handover.Arm_watchdog ev ->
      (* Per-round watchdog of a coordinated event, armed only under a
         fault plan: every [event_timeout] it counts a round timeout and
         re-arms until the event completes. The retry itself happens at the
         message layer, which retransmits every outstanding Prepare, ack or
         Transfer until its destination answers, and parks a snode's own
         loopback messages while it is down; prepared state is durable, so
         the round is never aborted (donor partitions are already in
         flight): it waits for its crashed participants to restart. *)
      if t.faults <> None then begin
        let fire () = run t sn (Handover.Watchdog ev) in
        Hashtbl.replace t.watches ev
          (Engine.push t.engine ~time:(Engine.now t.engine +. event_timeout) fire, fire)
      end
  | Handover.Clear_watchdog ev ->
      Option.iter
        (fun (slot, fire) -> Hashtbl.remove t.watches ev; Engine.clear t.engine slot fire)
        (Hashtbl.find_opt t.watches ev)
  | Handover.Note_timeout ev ->
      if sn.alive then begin
        Transport.note_timeout t.tr;
        Log.debug (fun m -> m "snode %d: event %d round timeout" sn.sid ev)
      end
  | Handover.Apply { to_vnode; spans; data } ->
      let v = local_exn sn to_vnode in
      install_spans sn v spans;
      List.iter
        (fun (key, cell) ->
          let point = Hash.string t.space key in
          ignore (Store.hold t.store v.data ~point ~key cell))
        data;
      (* Cells we already replicated for these spans move into the
         partition table, so the owner's holdings (and digests) see one
         copy. *)
      Store.absorb t.store v.data (fun point ->
          List.exists (fun sp -> Span.contains t.space sp point) spans);
      List.iter (fun s -> Route.learn t.route sn.sid s to_vnode) spans
  | Handover.Lpdr_applied { group; local; _ } ->
      List.iter (fun id -> (local_exn sn id).group <- group) local
  | Handover.Drop_vnode vid ->
      (match Vtbl.find_opt sn.locals vid with
      | Some v -> assert (v.spans = [])
      | None -> ());
      Vtbl.remove sn.locals vid
  | Handover.Place placed ->
      List.iter
        (fun (span, owner, reps) ->
          Route.learn t.route sn.sid span owner;
          Point_map.learn sn.rmap span reps)
        placed;
      (* The new owner files what it gained with the stewards of its
         regions, so they stay exact without refresh rounds. *)
      file_with_stewards t sn (fun f ->
          List.iter
            (fun (span, (owner : Vnode_id.t), _) ->
              if owner.snode = sn.sid then f span owner)
            placed)
  | Handover.Seed spans -> ae_push t sn spans
  | Handover.Committed ev -> Option.iter (fun f -> f ~event:ev ~snode:sn.sid) t.on_commit
  | Handover.Observe_prepare { event; start; participants } ->
      observe_2pc t sn ~start (fun i -> i.i_prepare) "2pc.prepare"
        [ ("event", Trace.Int event); ("participants", Trace.Int participants) ]
  | Handover.Observe_event { event; kind; start } ->
      let name, hist =
        match kind with
        | `Create -> ("create", fun i -> i.i_ev_create)
        | `Remove -> ("remove", fun i -> i.i_ev_remove)
        | `Balance -> ("balance", fun i -> i.i_ev_balance)
      in
      observe_2pc t sn ~start hist "2pc.event"
        [ ("event", Trace.Int event); ("kind", Trace.Str name) ];
      if kind = `Balance then t.lb_transfers <- t.lb_transfers + 1
  | Handover.Skipped -> t.lb_skipped <- t.lb_skipped + 1

(* Placements filed with a steward ride the balancer's report message
   class ([entries = []]), so routing maintenance adds no new wire tag. *)
and file_owns t ~src ~dst owns =
  send t ~src ~dst (Wire.Lb_report { origin = src; pull = false; entries = []; owns })

(* File placements with the stewards of the regions they intersect
   ({!Route.refresh}). *)
and file_with_stewards t sn owned =
  Route.refresh t.route ~sid:sn.sid owned (fun dst -> file_owns t ~src:sn.sid ~dst)

(* A round phase that began at [start] and ends now: its histogram and
   its trace span. *)
and observe_2pc t sn ~start hist name args =
  let dur = Engine.now t.engine -. start in
  Option.iter (fun i -> Histogram.observe (hist i) dur) t.instr;
  if Trace.enabled t.trace then Trace.span t.trace ~ts:start ~dur ~tid:sn.sid ~name args

(* The physical side of a prepare, before {!Handover} ships, expects and
   acknowledges: a creation splits local target members (split-all) and
   instantiates a local newcomer, and each local donor gives its spans. A
   swap's donor gives the hot span if it still owns it (the reporter chose
   it outside the group lock), else its hottest one. *)
and donate t sn msg =
  match msg with
  | Wire.Prepare p ->
      let plan = p.Wire.plan and newcomer = p.Wire.newcomer in
      if plan.Plan.split_all then
        List.iter
          (fun (id, _) ->
            if id.Vnode_id.snode = sn.sid && not (Vnode_id.equal id newcomer)
            then split_all_local t sn (local_exn sn id))
          plan.Plan.final_counts;
      if newcomer.Vnode_id.snode = sn.sid then
        Vtbl.replace sn.locals newcomer
          { vid = newcomer; group = p.Wire.target; spans = [];
            data = Store.table sn.sid };
      let members = Handover.group_snodes plan.Plan.final_counts in
      List.filter_map
        (fun { Plan.donor; give } ->
          if donor.Vnode_id.snode = sn.sid then
            Some (give_count t sn (local_exn sn donor) ~members ~dst:newcomer give)
          else None)
        plan.Plan.assignments
  | Wire.Remove_prepare { moves; remaining; _ } ->
      let members = Handover.group_snodes remaining in
      List.filter_map
        (fun { Plan.src; dst; n } ->
          if src.Vnode_id.snode = sn.sid then
            Some (give_count t sn (local_exn sn src) ~members ~dst n)
          else None)
        moves
  | Wire.Lb_swap { hot; from_vnode; to_vnode; _ } ->
      let hosts_from = from_vnode.Vnode_id.snode = sn.sid in
      let v = local_exn sn (if hosts_from then from_vnode else to_vnode) in
      let members =
        match Handover.lpdr sn.ho v.group with
        | Some lp -> Handover.group_snodes lp.Handover.counts
        | None ->
            List.sort_uniq compare
              [ from_vnode.Vnode_id.snode; to_vnode.Vnode_id.snode ]
      in
      let span =
        if hosts_from then
          if List.exists (fun s -> Span.compare s hot = 0) v.spans then hot
          else pick_span t ~hottest:true v.spans
        else pick_span t ~hottest:false v.spans
      in
      let receiver = if hosts_from then to_vnode else from_vnode in
      [ give t sn v ~members ~dst:receiver [ span ] ]
  | _ -> []

(* A directory proposal landing at the heavy snode: pick the hottest
   locally-owned partition whose group has a member hosted on the light
   snode (the swap must stay inside one group) and hand the request to
   that group's manager. Rate-limited per donor so one hot snode does not
   flood its groups with overlapping swaps. *)
and handle_lb_proposal t sn ~to_snode =
  match t.balance with
  | None -> ()
  | Some policy ->
      let now = Engine.now t.engine in
      if
        to_snode = sn.sid || to_snode < 0
        || to_snode >= Array.length t.snodes
        || now -. sn.lb_last_transfer < policy.Balance.Policy.min_spacing
      then t.lb_skipped <- t.lb_skipped + 1
      else begin
        let candidates = ref [] in
        Vtbl.iter
          (fun vid v ->
            match Handover.lpdr sn.ho v.group with
            | Some lp
              when List.exists
                     (fun (id, _) ->
                       id.Vnode_id.snode = to_snode
                       && not (Vnode_id.equal id vid))
                     lp.counts ->
                List.iter
                  (fun s -> candidates := (span_heat t s, s, vid, v.group) :: !candidates)
                  v.spans
            | _ -> ())
          sn.locals;
        let best =
          List.fold_left
            (fun best (h, s, vid, g) ->
              match best with
              | Some (bh, bs, _, _)
                when bh > h || (bh = h && Span.compare bs s <= 0) ->
                  best
              | _ -> Some (h, s, vid, g))
            None !candidates
        in
        match best with
        | None -> t.lb_skipped <- t.lb_skipped + 1
        | Some (_, hot, from_vnode, group) -> (
            match Handover.lpdr sn.ho group with
            | None -> t.lb_skipped <- t.lb_skipped + 1
            | Some _ ->
                sn.lb_last_transfer <- now;
                let msg =
                  Wire.Lb_transfer { group; hot; from_vnode; to_snode; origin = sn.sid }
                in
                run t sn (Handover.Msg { from = sn.sid; msg }))
      end

(* Emergency path: a report so far above the cluster average that waiting
   for the next balance round risks saturating the reporter. Proposed
   immediately, against the current lightest reporter, rate-limited like
   round proposals. *)
and maybe_emergency t sn policy (s : Balance.Summary.t) =
  if Balance.Directory.emergency sn.lb_dir policy s then
    match Balance.Directory.lightest_except sn.lb_dir ~origin:s.Balance.Summary.origin with
    | Some light
      when light.Balance.Summary.heat < s.Balance.Summary.heat
           && Balance.Directory.admit_proposal sn.lb_dir policy
                ~origin:s.Balance.Summary.origin ~now:(Engine.now t.engine) ->
        t.lb_proposals <- t.lb_proposals + 1;
        t.lb_emergencies <- t.lb_emergencies + 1;
        send t ~src:sn.sid ~dst:s.Balance.Summary.origin
          (Wire.Lb_proposal
             { to_snode = light.Balance.Summary.origin; emergency = true })
    | _ -> ()

(* ---------------- dispatch ---------------- *)

and handle t sn ~from msg =
  match msg with
  | Wire.Routed { point; hops; retries; origin; op } ->
      route_or_forward t sn (point, hops, retries, origin, op)
  | Wire.Create_at_group _ | Wire.Remove_at_group _ | Wire.Lb_transfer _
  | Wire.Prepare_ack _ | Wire.Transfer _ | Wire.All_received _ | Wire.Commit _
  | Wire.Lpdr_pull _ | Wire.Lpdr_push _ ->
      run t sn (Handover.Msg { from; msg })
  | Wire.Prepare _ | Wire.Remove_prepare _ | Wire.Lb_swap _ ->
      run t sn (Handover.Prepared { from; msg; shipped = donate t sn msg })
  | Wire.Create_done { newcomer } -> (
      t.done_creations <- t.done_creations + 1;
      t.pending <- t.pending - 1;
      match Vtbl.find_opt t.on_created newcomer with
      | Some f ->
          Vtbl.remove t.on_created newcomer;
          f ()
      | None -> ())
  | Wire.Remove_request { leaving; origin; token } -> (
      match Vtbl.find_opt sn.locals leaving with
      | None -> send t ~src:sn.sid ~dst:origin (Wire.Remove_done { token; ok = false })
      | Some v -> (
          match Handover.lpdr sn.ho v.group with
          | None ->
              (* Group identity switching (between Prepare and Commit):
                 retry shortly. *)
              t.retried <- t.retried + 1;
              Engine.schedule t.engine ~delay:backoff (fun () ->
                  deliver_local t sn msg)
          | Some _ ->
              let msg = Wire.Remove_at_group { group = v.group; leaving; origin; token } in
              run t sn (Handover.Msg { from = sn.sid; msg })))
  | Wire.Remove_done { token; ok } ->
      settle t ~tid:sn.sid ~token (Departed ok)
  | Wire.Put_ack { token; hint = _ } -> settle t ~tid:sn.sid ~token (Acked `Put)
  | Wire.Get_reply { token; value; hint = _ } ->
      settle t ~tid:sn.sid ~token (Answered (`Get, value))
  | Wire.Busy { token } ->
      (* Admission rejection landing at the origin: settle the operation
         now, unacknowledged. The write was applied nowhere; the read
         answers nothing. *)
      settle t ~tid:sn.sid ~token Shed
  | Wire.Repl_put { token; key; point; cell } ->
      accept t sn ~kind:`Write ~point ~key cell;
      send t ~src:sn.sid ~dst:from (Wire.Repl_put_ack { token })
  | Wire.Repl_put_ack { token } -> (
      match Hashtbl.find_opt sn.quorums token with
      | None -> ()
      | Some q -> qput_record t sn q from)
  | Wire.Repl_get { token; key; point } ->
      heat_charge t sn ~point ~kind:`Read ~bytes:(String.length key);
      send t ~src:sn.sid ~dst:from
        (Wire.Repl_get_reply { token; cell = Store.lookup t.store sn.sid ~point ~key })
  | Wire.Repl_get_reply { token; cell } -> (
      match Hashtbl.find_opt sn.quorums token with
      | None -> ()
      | Some q -> qget_record t sn q from cell)
  | Wire.Repl_hinted { token; target; key; point; cell } ->
      (* Sloppy-quorum fallback: park the cell for the crashed [target],
         ack toward W, and owe the target a flush. *)
      accept t sn ~kind:`Repl ~point ~key cell;
      park_hint t sn ~target ~key ~point cell;
      send t ~src:sn.sid ~dst:from (Wire.Repl_put_ack { token })
  | Wire.Hint_flush { key; point; cell } ->
      accept t sn ~kind:`Repl ~point ~key cell;
      send t ~src:sn.sid ~dst:from (Wire.Hint_ack { key })
  | Wire.Hint_ack { key } ->
      if Hashtbl.mem sn.hints (from, key) then begin
        Hashtbl.remove sn.hints (from, key);
        t.hints_flushed <- t.hints_flushed + 1
      end
  | Wire.Repl_repair { key; point; cell } -> accept t sn ~kind:`Repl ~point ~key cell
  | Wire.Repl_sync _ | Wire.Mt_root _ | Wire.Mt_request _ | Wire.Mt_frames _
  | Wire.Mt_leaf _ | Wire.Mt_want _ ->
      List.iter
        (send t ~src:sn.sid ~dst:from)
        (Store.answer t.store sn.sid ~from ~synced:(charge_cell t sn ~kind:`Repl) msg)
  | Wire.Range_get { token; lo; hi } ->
      let cells = Store.range t.store sn.sid ~lo ~hi in
      heat_charge t sn ~point:lo ~kind:`Read ~bytes:(Wire.cells_size cells);
      send t ~src:sn.sid ~dst:from (Wire.Range_reply { token; lo; cells })
  | Wire.Range_reply { token; lo; cells } -> (
      match Hashtbl.find_opt sn.ranges token with
      | None -> ()
      | Some st -> (
          match Hashtbl.find_opt st.r_legs lo with
          | None -> ()
          | Some leg -> leg_record t sn leg ~sid:from cells))
  | Wire.Ae_request ->
      (* The sender just restarted. Re-offer any hints we still owe it
         first: the original flush may have been sent straight into its
         crash window, and without a fault plan there is no reliable
         layer to retransmit it. A duplicate flush is harmless — storage
         merges by LWW and a second ack finds the binding already gone. *)
      Hashtbl.fold
        (fun (target, key) s acc ->
          if target = from then (key, !s) :: acc else acc)
        sn.hints []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (key, cell) ->
             let point = Hash.string t.space key in
             send t ~src:sn.sid ~dst:from (Wire.Hint_flush { key; point; cell }));
      ae_push t sn ~target:from (owned_spans sn)
  | Wire.Traced { trace; span; hop; payload } ->
      (* First delivery of a traced edge (duplicates never reach the
         protocol layer): log the receive, make the edge the ambient
         context so everything the payload provokes is parented on it. *)
      if t.causal then
        Trace.instant t.trace ~ts:(Engine.now t.engine) ~tid:sn.sid
          ~cat:"causal" ~name:"msg.recv"
          [ ("trace", Trace.Int trace); ("span", Trace.Int span);
            ("dst", Trace.Int sn.sid) ];
      let saved = t.cur in
      t.cur <- Some (trace, span, hop);
      handle t sn ~from payload;
      t.cur <- saved
  | Wire.Lb_report { origin = _; pull; entries; owns } ->
      (* Load dissemination: merge the sender's view version-fenced. A
         directory snode also files every entry as a load report and
         checks the emergency threshold; a pull asks for our view back
         (the push-pull round). *)
      ignore (Balance.Gossip.merge sn.lb_view entries);
      (* Routing maintenance riding the same message: the sender's exact
         owned placements for regions we steward. *)
      List.iter (fun (span, vid) -> Route.learn t.route sn.sid span vid) owns;
      (match t.balance with
      | Some policy when sn.lb_is_dir ->
          List.iter
            (fun s ->
              if Balance.Directory.note sn.lb_dir s then
                maybe_emergency t sn policy s)
            entries
      | Some _ | None -> ());
      if pull then begin
        t.lb_reports <- t.lb_reports + 1;
        send t ~src:sn.sid ~dst:from
          (Wire.Lb_report
             {
               origin = sn.sid;
               pull = false;
               entries = Balance.Gossip.entries sn.lb_view;
               owns = [];
             })
      end
  | Wire.Lb_proposal { to_snode; emergency = _ } ->
      handle_lb_proposal t sn ~to_snode
  | Wire.Req _ | Wire.Ack _ | Wire.Batch _ ->
      (* Unwrapped by [Transport]; reaching the protocol layer is a bug. *)
      failwith "Runtime: link-layer frame in protocol handler"

(* ------------------------------------------------------------------ *)
(* Crash and recovery                                                   *)

(* Crash-stop: the snode absorbs every delivery until restart. Protocol
   state (vnode data, LPDR copies, prepared events, the transport's
   outboxes and dedup windows) is modelled as durable — the classic 2PC
   stable log — so only genuinely volatile state dies: transport timers,
   route suspicions and RTT estimates, and the routing cache (rebuilt on
   restart). *)
let crash_snode t sid =
  let sn = t.snodes.(sid) in
  if sn.alive then begin
    sn.alive <- false;
    sn.down_since <- Engine.now t.engine;
    t.crashes <- t.crashes + 1;
    if Trace.enabled t.trace then
      Trace.instant t.trace ~ts:sn.down_since ~tid:sid ~name:"crash" [];
    (match t.faults with Some f -> Fault.set_down f sid | None -> ());
    Transport.crash t.tr sid;
    (* Heat cells of the partitions this snode owns are soft state too: a
       restarted snode re-learns its load rather than acting on pre-crash
       history (same contract as the RTT estimators). The table may hold
       replica-map fragments finer than the owned partitions, so matching
       is by containment, not key equality. *)
    (match t.heat with
    | Some tbl ->
        Hashtbl.fold (fun span _ acc -> span :: acc) tbl []
        |> List.iter (fun span ->
               match Point_map.find_point sn.owned (Span.start t.space span) with
               | _ -> Hashtbl.remove tbl span
               | exception Not_found -> ())
    | None -> ());
    (* The gossip view and directory table die with the snode; the durable
       lb_version counter makes its first post-restart summary supersede
       everything it gossiped before the crash. *)
    Balance.Gossip.reset sn.lb_view;
    Balance.Directory.reset sn.lb_dir;
    Store.crash t.store sid;
    Log.debug (fun m -> m "snode %d crashed at %g" sid (Engine.now t.engine))
  end

let restart_snode t sid =
  let sn = t.snodes.(sid) in
  if not sn.alive then begin
    sn.alive <- true;
    t.recoveries <- t.recoveries + 1;
    let downtime = Engine.now t.engine -. sn.down_since in
    (match t.instr with
    | Some i -> Histogram.observe i.i_downtime downtime
    | None -> ());
    if Trace.enabled t.trace then
      Trace.span t.trace ~ts:sn.down_since ~dur:downtime ~tid:sid
        ~name:"recovery.downtime" [];
    (match t.faults with Some f -> Fault.set_up f sid | None -> ());
    Log.debug (fun m -> m "snode %d restarts at %g" sid (Engine.now t.engine));
    Route.restart t.route sid (iter_owned sn);
    (* The owners of spans in the regions it stewards file them again. *)
    Array.iter
      (fun o ->
        if o.alive then
          Route.refile t.route ~steward:sid ~sid:o.sid (Point_map.overlapping o.owned)
            (file_owns t ~src:o.sid ~dst:sid))
      t.snodes;
    (* Re-send everything unacknowledged and re-arm staged flushes. *)
    Transport.restart t.tr sid;
    (* Replay self-addressed work that fired while down. *)
    while not (Queue.is_empty sn.parked) do
      deliver_local t sn (Queue.pop sn.parked)
    done;
    (* Pull fresh copies of the LPDRs no in-flight commit will refresh. *)
    run t sn Handover.Restart;
    (* Catch up on writes missed while down: ask every peer to push root
       frames for the partitions we replicate (hinted copies arrive
       through the reliable layer on their own). *)
    if t.rfactor > 1 then
      Array.iter
        (fun peer ->
          if peer.sid <> sid then
            send t ~src:sid ~dst:peer.sid Wire.Ae_request)
        t.snodes
  end

(* ------------------------------------------------------------------ *)
(* Active load balancing: rounds                                        *)

let lb_policy_exn t =
  match t.balance with
  | Some p -> p
  | None -> invalid_arg "Runtime: balancer not armed (pass ?balance to create)"

(* Refresh the snode's own load summary — total heat over its owned
   partitions, egress pressure, partition count — under a fresh version
   stamp, and install it in its own gossip view. The version counter is
   durable (survives crashes), so post-restart summaries supersede
   everything gossiped before the crash. *)
let lb_refresh_summary t sn =
  let heat =
    Vtbl.fold
      (fun _ v acc ->
        List.fold_left (fun a s -> a +. span_heat t s) acc v.spans)
      sn.locals 0.
  in
  let partitions =
    Vtbl.fold (fun _ v acc -> acc + List.length v.spans) sn.locals 0
  in
  let queue = Transport.queue_depth t.tr sn.sid in
  sn.lb_version <- sn.lb_version + 1;
  let s =
    Balance.Summary.make ~origin:sn.sid ~version:sn.lb_version ~heat ~queue
      ~partitions ~stamped:(Engine.now t.engine)
  in
  ignore (Balance.Gossip.note sn.lb_view s);
  s

(* One push-pull gossip round: every live snode refreshes its summary and
   pushes its whole view to [fanout] distinct random peers, each of which
   replies with its own view (the pull half, in the Lb_report handler). *)
let lb_gossip_round t =
  let policy = lb_policy_exn t in
  let n = Array.length t.snodes in
  if n > 1 then
    Array.iter
      (fun sn ->
        if sn.alive then begin
          ignore (lb_refresh_summary t sn);
          let entries = Balance.Gossip.entries sn.lb_view in
          let fanout = min policy.Balance.Policy.fanout (n - 1) in
          let chosen = ref [] in
          while List.length !chosen < fanout do
            let p = Rng.int sn.rng n in
            if p <> sn.sid && not (List.mem p !chosen) then
              chosen := p :: !chosen
          done;
          List.iter
            (fun dst ->
              t.lb_reports <- t.lb_reports + 1;
              send t ~src:sn.sid ~dst
                (Wire.Lb_report
                   { origin = sn.sid; pull = true; entries; owns = [] }))
            (List.rev !chosen)
        end)
      t.snodes

(* One directory-report round: every live snode sends its fresh summary to
   its hash-located directory (round-robin over the directory set). *)
let lb_report_round t =
  let policy = lb_policy_exn t in
  let n = Array.length t.snodes in
  Array.iter
    (fun sn ->
      if sn.alive then begin
        let s = lb_refresh_summary t sn in
        let dir =
          Balance.Directory.directory_for ~snodes:n
            ~count:policy.Balance.Policy.directories ~origin:sn.sid
        in
        t.lb_reports <- t.lb_reports + 1;
        let msg =
          Wire.Lb_report
            { origin = sn.sid; pull = false; entries = [ s ]; owns = [] }
        in
        if dir = sn.sid then deliver_local t sn msg
        else send t ~src:sn.sid ~dst:dir msg
      end)
    t.snodes

(* One balance round: every live directory classifies its reporters into
   light/heavy against the cluster average and proposes a transfer from
   the k-th heaviest toward the k-th lightest (many-to-many), rate-limited
   per heavy origin. *)
let lb_balance_round t =
  let policy = lb_policy_exn t in
  let now = Engine.now t.engine in
  Array.iter
    (fun sn ->
      if sn.alive && sn.lb_is_dir then begin
        let light, heavy = Balance.Directory.classify sn.lb_dir policy in
        List.iter
          (fun ((h : Balance.Summary.t), (l : Balance.Summary.t)) ->
            if
              Balance.Directory.admit_proposal sn.lb_dir policy
                ~origin:h.Balance.Summary.origin ~now
            then begin
              t.lb_proposals <- t.lb_proposals + 1;
              send t ~src:sn.sid ~dst:h.Balance.Summary.origin
                (Wire.Lb_proposal
                   { to_snode = l.Balance.Summary.origin; emergency = false })
            end)
          (Balance.Directory.pair ~light ~heavy)
      end)
    t.snodes

(* Pre-schedule [round] every [interval] up to [until] — explicit
   occurrences like [anti_entropy], never a self-rescheduling timer, so
   [run] without a horizon still drains the queue. *)
let arm_rounds t ~interval ~until round =
  let now = Engine.now t.engine in
  let steps = int_of_float ((until -. now) /. interval) in
  for i = 1 to steps do
    Engine.at t.engine ~time:(now +. (float_of_int i *. interval)) (fun () ->
        round t)
  done

let arm_balancer t ~until =
  let policy = lb_policy_exn t in
  let arm interval round = arm_rounds t ~interval ~until round in
  arm policy.Balance.Policy.gossip_interval lb_gossip_round;
  arm policy.Balance.Policy.report_interval lb_report_round;
  arm policy.Balance.Policy.balance_interval lb_balance_round

(* ------------------------------------------------------------------ *)
(* Routing maintenance: steward refresh rounds                          *)

(* One refresh round: every live snode files all it owns. Commits and
   restarts already keep stewards exact; rounds remain for callers that
   want periodic repair on top. *)
let route_refresh_round t =
  Array.iter (fun sn -> if sn.alive then file_with_stewards t sn (iter_owned sn)) t.snodes

let arm_route_refresh t ~interval ~until =
  if interval <= 0. || not (Float.is_finite interval) then
    invalid_arg "Runtime.arm_route_refresh: interval must be positive";
  arm_rounds t ~interval ~until route_refresh_round

(* ------------------------------------------------------------------ *)
(* Construction and public API                                          *)

let create ?(link = Network.gigabit) ?(pmin = 32)
    ?(approach = Local { vmin = 16 }) ?faults ?(rto = 1e-3)
    ?(retry_budget = 0) ?(adaptive_rto = false) ?(max_inflight = 0)
    ?(admission_deadline = 0.) ?(ingress_limit = 0) ?(rfactor = 1)
    ?(read_quorum = 1) ?(write_quorum = 1) ?(linger = 0.)
    ?(mt_threshold = 128) ?(mt_leaf = 16) ?metrics ?(trace = Trace.noop) ?(causal = false)
    ?(heat = false) ?(heat_tau = 1.0) ?balance ?(route_cap = 0)
    ?(max_hops = Route.default_max_hops) ~snodes ~seed () =
  if snodes < 1 then invalid_arg "Runtime.create: need at least one snode";
  let space = Space.default in
  (match balance with
  | Some p -> Balance.Policy.validate p
  | None -> ());
  (* The balancer steers by heat, so enabling it implies heat tracking. *)
  let heat = heat || balance <> None in
  if not (Params.is_power_of_two pmin) then
    invalid_arg "Runtime.create: pmin must be a power of two";
  if rto <= 0. || rto > Transport.rto_cap then
    invalid_arg "Runtime.create: rto must lie in (0, 50 ms]";
  if retry_budget < 0 then invalid_arg "Runtime.create: retry_budget < 0";
  if max_inflight < 0 then invalid_arg "Runtime.create: max_inflight < 0";
  if ingress_limit < 0 then invalid_arg "Runtime.create: ingress_limit < 0";
  if admission_deadline < 0. || not (Float.is_finite admission_deadline) then
    invalid_arg "Runtime.create: admission_deadline must be finite and >= 0";
  Params.check_quorum ~rfactor ~read_quorum ~write_quorum;
  if rfactor > snodes then
    invalid_arg "Runtime.create: rfactor exceeds the snode count";
  if linger < 0. || not (Float.is_finite linger) then
    invalid_arg "Runtime.create: linger must be finite and non-negative";
  if heat_tau <= 0. || not (Float.is_finite heat_tau) then
    invalid_arg "Runtime.create: heat_tau must be finite and positive";
  let vmax =
    match approach with
    | Global -> max_int
    | Local { vmin } ->
        if not (Params.is_power_of_two vmin) then
          invalid_arg "Runtime.create: vmin must be a power of two";
        2 * vmin
  in
  let engine = Engine.create () in
  let net = Network.create ?faults engine link in
  if ingress_limit > 0 then Network.set_ingress_limit net ingress_limit;
  let master = Rng.of_int seed in
  let first = Vnode_id.make ~snode:0 ~vnode:0 in
  let level0 = Params.log2_exact pmin in
  let spans0 = List.init pmin (fun i -> Span.make space ~level:level0 ~index:i) in
  let bootstrap = (spans0, first) in
  let route = Route.create ~space ~pmin ~snodes ~route_cap ~max_hops ~bootstrap in
  let instr =
    match metrics with
    | None -> None
    | Some reg ->
        let lat ?labels name = Registry.histogram reg ?labels name in
        Some
          {
            (* Hop counts are small integers: unit buckets doubling from 1;
               a zero-hop resolution lands in the underflow bucket. *)
            i_hops =
              Registry.histogram reg ~lo:1.0 ~growth:2.0 ~bins:8
                "runtime.route.hops";
            i_op_put = lat ~labels:[ ("op", "put") ] "runtime.op.latency";
            i_op_get = lat ~labels:[ ("op", "get") ] "runtime.op.latency";
            i_op_remove =
              lat ~labels:[ ("op", "remove") ] "runtime.op.latency";
            i_prepare = lat "runtime.2pc.prepare";
            i_ev_create =
              lat ~labels:[ ("kind", "create") ] "runtime.2pc.event";
            i_ev_remove =
              lat ~labels:[ ("kind", "remove") ] "runtime.2pc.event";
            i_ev_balance =
              lat ~labels:[ ("kind", "balance") ] "runtime.2pc.event";
            i_downtime = lat "runtime.recovery.downtime";
            i_q_put = lat ~labels:[ ("op", "put") ] "runtime.quorum.latency";
            i_q_get = lat ~labels:[ ("op", "get") ] "runtime.quorum.latency";
            i_q_range =
              lat ~labels:[ ("op", "range") ] "runtime.quorum.latency";
          }
  in
  let replicas0 =
    Placement.replicas ~rfactor ~n:snodes ~primary:0 ~group_snodes:[ 0 ]
  in
  (* The transport hands messages up to [handle] (and traced edges to
     [emit_xmit]), and the handover allocates event ids, which need the
     runtime built around them: tie the knot. *)
  let self = ref None in
  let rt () = Option.get !self in
  let mk_snode sid =
    let locals = Vtbl.create 8 and rng = Rng.split master in
    let sn =
      {
        sid;
        alive = true;
        down_since = 0.;
        locals;
        owned = Point_map.create space;
        rmap = Point_map.create space;
        hints = Hashtbl.create 8;
        quorums = Hashtbl.create 8;
        wseq = 0;
        rng;
        ho =
          Handover.create ~sid ~snodes ~pmin ~vmax ~replicated:(rfactor > 1)
            ~space spans0;
        env =
          {
            Handover.now = (fun () -> Engine.now engine);
            next_event =
              (fun () ->
                let t = rt () in
                let ev = t.next_event in
                t.next_event <- ev + 1;
                ev);
            split = (fun counts -> Plan.split ~rng ~vmin:(vmax / 2) counts);
            hosts = Vtbl.mem locals;
          };
        parked = Queue.create ();
        lb_view = Balance.Gossip.create ();
        lb_dir = Balance.Directory.create ();
        lb_is_dir =
          (match balance with
          | None -> false
          | Some p ->
              List.mem sid
                (Balance.Directory.locate ~snodes
                   ~count:p.Balance.Policy.directories));
        lb_version = 0;
        lb_last_transfer = neg_infinity;
        ranges = Hashtbl.create 8;
      }
    in
    (* Every replica map starts with the bootstrap replica set (all
       partitions primaried at snode 0, backups on its ring successors). *)
    List.iter (fun s -> Point_map.add sn.rmap s replicas0) spans0;
    sn
  in
  let snodes_arr = Array.init snodes mk_snode in
  let store =
    Store.create ~space ~mt_threshold ~mt_leaf ~snodes
      ~owner:(fun sid point ->
        let sn = snodes_arr.(sid) in
        (local_exn sn (Point_map.find_owner_exn sn.owned point)).data)
      ~tables:(fun sid f ->
        Vtbl.iter (fun vid v -> f vid v.data) snodes_arr.(sid).locals)
  in
  let sn0 = snodes_arr.(0) in
  Vtbl.replace sn0.locals first
    { vid = first; group = Group_id.root; spans = spans0; data = Store.table 0 };
  List.iter (fun s -> Point_map.add sn0.owned s first) spans0;
  Handover.bootstrap sn0.ho Group_id.root
    { Handover.level = level0; epoch = 0; counts = [ (first, pmin) ] };
  (* Causal propagation changes wire bytes (the Traced wrapper), so it is
     opt-in on top of tracing rather than implied by it: a plain trace must
     observe the exact schedule an untraced run produces. *)
  let causal = causal && Trace.enabled trace in
  let xmit ~tid ~attempt msg = emit_xmit (rt ()) ~tid ~attempt msg in
  let deliver ~dst ~from msg =
    let sn = snodes_arr.(dst) in
    (* A loopback that lands while its snode is down waits for the restart. *)
    if sn.alive then handle (rt ()) sn ~from msg else Queue.add msg sn.parked
  in
  let tr =
    Transport.create engine net ~rngs:(Array.map (fun sn -> sn.rng) snodes_arr)
      ~rto ~retry_budget ~adaptive_rto ~max_inflight ~linger ~metrics ~trace
      ~xmit:(if causal then Some xmit else None) ~deliver
  in
  let t =
    {
      engine;
      net;
      faults;
      space;
      pmin;
      vmax;
      tr;
      route;
      admission_deadline;
      rfactor;
      read_quorum;
      write_quorum;
      store;
      instr;
      trace;
      causal;
      cur = None;
      next_span = 0;
      op_roots = Hashtbl.create 64;
      heat = (if heat then Some (Hashtbl.create 64) else None);
      heat_tau;
      balance;
      op_starts = Hashtbl.create 64;
      snodes = snodes_arr;
      callbacks = Hashtbl.create 64;
      on_created = Vtbl.create 16;
      next_token = 0;
      next_event = 0;
      watches = Hashtbl.create 8;
      pending = 0;
      done_creations = 0;
      done_removals = 0;
      done_puts = 0;
      done_gets = 0;
      retried = 0;
      sheds = 0;
      busy_rejections = 0;
      crashes = 0;
      recoveries = 0;
      hints_stored = 0;
      hints_flushed = 0;
      read_repairs = 0;
      done_ranges = 0;
      lb_transfers = 0;
      lb_proposals = 0;
      lb_emergencies = 0;
      lb_skipped = 0;
      lb_reports = 0;
      on_commit = None;
      recorder = None;
    }
  in
  self := Some t;
  (* Crash-stop/restart schedule from the fault plan. Every crash must come
     with a restart or retransmission toward the dead snode never ends. *)
  (match faults with
  | None -> ()
  | Some f ->
      List.iter
        (fun (sid, at, back_at) ->
          if sid < 0 || sid >= snodes then
            invalid_arg "Runtime.create: crash plan names an unknown snode";
          Engine.at engine ~time:at (fun () -> crash_snode t sid);
          Engine.at engine ~time:back_at (fun () -> restart_snode t sid))
        (Fault.crash_plan f));
  t

let engine t = t.engine
let network t = t.net
let snode_count t = Array.length t.snodes
let vnode_count t = t.done_creations + 1
type stats = {
  drops : int;
  duplicates : int;
  timeouts : int;
  retransmits : int;
  crashes : int;
  recoveries : int;
}

let stats t =
  let drops, duplicates =
    match t.faults with
    | None -> (0, 0)
    | Some f -> (Fault.drops f, Fault.duplicates f)
  in
  let c = Transport.counters t.tr in
  {
    drops;
    duplicates;
    timeouts = c.timeouts;
    retransmits = c.retransmits;
    crashes = t.crashes;
    recoveries = t.recoveries;
  }

type overload_stats = {
  sheds : int;
  busy_rejections : int;
  probes : int;
  backpressured : int;
  reliable_messages : int;
  outbox_peak : int;
  ingress_overflows : int;
  ingress_peak : int;
}

let overload_stats (t : t) =
  let c = Transport.counters t.tr in
  {
    sheds = t.sheds;
    busy_rejections = t.busy_rejections;
    probes = c.probes;
    backpressured = c.backpressured;
    reliable_messages = c.reliable_msgs;
    outbox_peak = c.outbox_peak;
    ingress_overflows = Network.ingress_overflows t.net;
    ingress_peak = Network.max_ingress_high_water t.net;
  }

(* Bounded-queue audit: the structural invariants of the degradation layer.
   Cheap enough to run at every explorer step. *)
let queue_audit t = Transport.audit t.tr

type repl_stats = {
  hints_stored : int;
  hints_flushed : int;
  read_repairs : int;
  sync_cells : int;
  orphans : int;
}

let repl_stats (t : t) =
  {
    hints_stored = t.hints_stored;
    hints_flushed = t.hints_flushed;
    read_repairs = t.read_repairs;
    sync_cells = Store.sync_cells t.store;
    orphans = Store.orphans t.store;
  }

(* ------------------------------------------------------------------ *)
(* Heat and health exports                                              *)

type heat_row = {
  hr_span : Span.t;
  hr_owner : int;  (* snode owning the partition at report time; -1 unknown *)
  hr_reads : float;  (* decayed EWMA heat per class, as of [Engine.now] *)
  hr_writes : float;
  hr_repl : float;
  hr_bytes : float;
  hr_read_count : int;  (* raw access totals *)
  hr_write_count : int;
  hr_repl_count : int;
}

let heat_total r = r.hr_reads +. r.hr_writes +. r.hr_repl

(* Authoritative owner of [point]: the snode whose exact ownership map
   covers it (exactly one, by the coverage invariant; [-1] only if the
   probe races a migration). *)
let owner_of_point t point =
  let n = Array.length t.snodes in
  let rec scan i =
    if i >= n then -1
    else
      match Point_map.find_point t.snodes.(i).owned point with
      | _ -> t.snodes.(i).sid
      | exception Not_found -> scan (i + 1)
  in
  scan 0

let heat_rows t =
  match t.heat with
  | None -> []
  | Some tbl ->
      let now = Engine.now t.engine in
      Hashtbl.fold (fun span e acc -> (span, e) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> Span.compare a b)
      |> List.map (fun (span, e) ->
             {
               hr_span = span;
               hr_owner = owner_of_point t (Span.start t.space span);
               hr_reads = Heat.value e.h_read ~now;
               hr_writes = Heat.value e.h_write ~now;
               hr_repl = Heat.value e.h_repl ~now;
               hr_bytes = Heat.value e.h_bytes ~now;
               hr_read_count = Heat.count e.h_read;
               hr_write_count = Heat.count e.h_write;
               hr_repl_count = Heat.count e.h_repl;
             })

type peer_sample = Transport.peer_sample = {
  ps_observer : int; ps_peer : int; ps_srtt : float; ps_rttvar : float;
  ps_strikes : int; ps_suspect : bool; ps_outbox : int; ps_backlog : int;
}

let peer_samples t = Transport.peer_samples t.tr

(* ------------------------------------------------------------------ *)
(* Load-balancer exports                                                *)

type lb_stats = {
  lbs_transfers : int;
  lbs_proposals : int;
  lbs_emergencies : int;
  lbs_skipped : int;
  lbs_reports : int;
}

let lb_stats t =
  {
    lbs_transfers = t.lb_transfers;
    lbs_proposals = t.lb_proposals;
    lbs_emergencies = t.lb_emergencies;
    lbs_skipped = t.lb_skipped;
    lbs_reports = t.lb_reports;
  }

(* Every snode's durable version counter and gossip view, in snode order —
   the convergence tests' input. Crashed snodes report their (reset) view
   too. *)
let lb_views t =
  Array.to_list t.snodes
  |> List.map (fun sn ->
         (sn.sid, sn.lb_version, Balance.Gossip.entries sn.lb_view))

(* ---------------- scalable-routing exports ---------------- *)

let route_level t = Route.level t.route
let route_bounded t = Route.bounded t.route
let max_hops t = Route.max_hops t.route

type route_cache_stats = Route.stats = {
  rcs_hits : int; rcs_misses : int; rcs_evictions : int;
  rcs_refreshes : int; rcs_entries : int; rcs_peak : int;
}

let route_cache_stats t = Route.stats t.route
let route_cache_entries t sid = Route.entries t.route sid
let route_hops t = Route.hops t.route

(* One post-run dump of every counter the engine, network and runtime kept
   on their own. Histograms registered at [create] are already in the
   registry; this adds the scalar side so [Registry.to_table] is the whole
   story. Call it once, after the run — counters would double on a second
   call. *)
let record_metrics t reg =
  let c ?labels name v = Registry.inc (Registry.counter reg ?labels name) v in
  let g name v = Registry.set (Registry.gauge reg name) v in
  c "engine.dispatched" (Engine.dispatched t.engine);
  g "engine.max_pending" (float_of_int (Engine.max_pending t.engine));
  g "engine.virtual_time" (Engine.now t.engine);
  c "net.messages" (Network.messages t.net);
  c "net.bytes" (Network.bytes_sent t.net);
  c "net.local_deliveries" (Network.local_deliveries t.net);
  c "net.batches" (Network.batches t.net);
  c "net.batch.parts" (Network.batched_parts t.net);
  c "net.batch.saved_bytes" (Network.batch_bytes_saved t.net);
  List.iter
    (fun (tag, m, b) ->
      c ~labels:[ ("tag", tag) ] "net.messages" m;
      c ~labels:[ ("tag", tag) ] "net.bytes" b)
    (Network.per_tag t.net);
  let s = stats t in
  c "runtime.drops" s.drops;
  c "runtime.duplicates" s.duplicates;
  c "runtime.timeouts" s.timeouts;
  c "runtime.retransmits" s.retransmits;
  c "runtime.crashes" s.crashes;
  c "runtime.recoveries" s.recoveries;
  c "runtime.retries" t.retried;
  let tc = Transport.counters t.tr in
  c "runtime.retry.probes" tc.probes;
  c "runtime.reliable_messages" tc.reliable_msgs;
  c "runtime.admission.shed" t.sheds;
  c "runtime.admission.busy" t.busy_rejections;
  c "runtime.backpressured" tc.backpressured;
  g "runtime.outbox.peak" (float_of_int tc.outbox_peak);
  c "net.ingress.overflows" (Network.ingress_overflows t.net);
  g "net.ingress.peak" (float_of_int (Network.max_ingress_high_water t.net));
  c "runtime.repl.hint.stored" t.hints_stored;
  c "runtime.repl.hint.flushed" t.hints_flushed;
  c "runtime.repl.repair.read" t.read_repairs;
  c "runtime.lb.transfers" t.lb_transfers;
  c "runtime.lb.proposals" t.lb_proposals;
  c "runtime.lb.emergencies" t.lb_emergencies;
  c "runtime.lb.skipped" t.lb_skipped;
  c "runtime.lb.reports" t.lb_reports;
  Route.record_metrics t.route reg;
  c ~labels:[ ("op", "create") ] "runtime.ops" t.done_creations;
  c ~labels:[ ("op", "remove") ] "runtime.ops" t.done_removals;
  c ~labels:[ ("op", "put") ] "runtime.ops" t.done_puts;
  c ~labels:[ ("op", "get") ] "runtime.ops" t.done_gets;
  c ~labels:[ ("op", "range") ] "runtime.ops" t.done_ranges;
  Store.record_metrics t.store reg;
  if t.causal then c "runtime.causal.spans" t.next_span;
  (* Per-partition heat series, one labeled row group per partition; the
     registry sorts rows by (name, labels), so the dump is deterministic. *)
  List.iter
    (fun r ->
      let labels =
        [
          ("partition", Format.asprintf "%a" Span.pp r.hr_span);
          ("owner", string_of_int r.hr_owner);
        ]
      in
      let gl name v = Registry.set (Registry.gauge reg ~labels name) v in
      gl "heat.reads" r.hr_reads;
      gl "heat.writes" r.hr_writes;
      gl "heat.repl" r.hr_repl;
      gl "heat.bytes" r.hr_bytes;
      c ~labels "heat.accesses"
        (r.hr_read_count + r.hr_write_count + r.hr_repl_count))
    (heat_rows t)

let create_vnode t ?initiator ?on_done ~id () =
  let origin =
    Option.value initiator ~default:(id.Vnode_id.snode mod Array.length t.snodes)
  in
  if origin < 0 || origin >= Array.length t.snodes then
    invalid_arg "Runtime.create_vnode: initiator out of range";
  t.pending <- t.pending + 1;
  Option.iter (Vtbl.replace t.on_created id) on_done;
  let sn = t.snodes.(origin) in
  Engine.schedule t.engine ~delay:0. (fun () ->
      let point = Rng.int sn.rng (Space.size t.space) in
      deliver_local t sn
        (Wire.Routed
           { point; hops = 0; retries = 0; origin;
             op = Wire.Op_create { newcomer = id } }))

let fresh_token t cb =
  let token = t.next_token in
  t.next_token <- t.next_token + 1;
  Hashtbl.add t.callbacks token cb;
  note_op_start t token;
  token

(* The coordinator for a quorum operation issued via [via]: that snode if
   it is up, otherwise the first live snode after it on the ring. A dead
   entry point must not demote a replicated operation to the single-copy
   routed path — that write would reach one replica and silently void the
   R+W intersection guarantee. [None] only when the whole cluster is
   down. *)
let live_coordinator t via =
  let n = Array.length t.snodes in
  let rec scan i =
    if i >= n then None
    else
      let sn = t.snodes.((via + i) mod n) in
      if sn.alive then Some sn else scan (i + 1)
  in
  scan 0

let check_via t fn via =
  if via < 0 || via >= Array.length t.snodes then
    invalid_arg (fn ^ ": via out of range")

let put t ?(via = 0) ?on_done ~key ~value () =
  check_via t "Runtime.put" via;
  let token = fresh_token t (Cb_put on_done) in
  t.pending <- t.pending + 1;
  if recording t then
    record t
      (Oplog.Invoke
         { token; via; op = Oplog.Op_put { key; value }; at = Engine.now t.engine });
  let point = Hash.string t.space key in
  Engine.schedule t.engine ~delay:0. (fun () ->
      causal_root t ~token ~tid:via
        ~op:(if t.rfactor > 1 then "qput" else "put")
      @@ fun () ->
      match if t.rfactor > 1 then live_coordinator t via else None with
      | Some sn ->
          let cell = stamp_cell t sn ~value in
          let set = Point_map.find_owner_exn sn.rmap point in
          if admit_quorum t sn ~token ~origin:via ~set ~need:t.write_quorum
          then start_qput t sn ~token ~key ~point ~set cell
      | None ->
          (* Replication off, or every snode is down: fall back to the
             single-copy routed path. It parks until a restart; the owner
             then seeds the replicas as it applies the write. *)
          deliver_local t t.snodes.(via)
            (Wire.Routed
               { point; hops = 0; retries = 0; origin = via;
                 op = Wire.Op_put { key; value; token } }))

let get t ?(via = 0) ~key k =
  check_via t "Runtime.get" via;
  let token = fresh_token t (Cb_get k) in
  t.pending <- t.pending + 1;
  if recording t then
    record t
      (Oplog.Invoke
         { token; via; op = Oplog.Op_get { key }; at = Engine.now t.engine });
  let point = Hash.string t.space key in
  Engine.schedule t.engine ~delay:0. (fun () ->
      causal_root t ~token ~tid:via
        ~op:(if t.rfactor > 1 then "qget" else "get")
      @@ fun () ->
      match if t.rfactor > 1 then live_coordinator t via else None with
      | Some sn ->
          let set = Point_map.find_owner_exn sn.rmap point in
          if admit_quorum t sn ~token ~origin:via ~set ~need:t.read_quorum
          then start_qget t sn ~token ~key ~point ~set
      | None ->
          deliver_local t t.snodes.(via)
            (Wire.Routed
               { point; hops = 0; retries = 0; origin = via;
                 op = Wire.Op_get { key; token } }))

let range_get t ?(via = 0) ~lo ~hi k =
  if lo < 0 || hi > Space.size t.space || lo > hi then
    invalid_arg "Runtime.range_get: bad range bounds";
  check_via t "Runtime.range_get" via;
  let token = fresh_token t (Cb_range k) in
  t.pending <- t.pending + 1;
  Engine.schedule t.engine ~delay:0. (fun () ->
      causal_root t ~token ~tid:via ~op:"range" @@ fun () ->
      match live_coordinator t via with
      | Some sn -> start_range t sn ~token ~lo ~hi
      | None ->
          (* Every snode is down: settle failed (empty) rather than park —
             a range read carries no single owner to wake it on restart. *)
          settle t ~tid:via ~token Failed)

(* Synchronous test oracle: the authoritative copy at the partition owner,
   read without any messaging. *)
let peek t ~key =
  let point = Hash.string t.space key in
  let rec scan sid =
    if sid >= Array.length t.snodes then None
    else
      let sn = t.snodes.(sid) in
      match Point_map.find_point sn.owned point with
      | _, vid -> Store.value (local_exn sn vid).data key
      | exception Not_found -> scan (sid + 1)
  in
  scan 0

(* One explicit anti-entropy round over every live snode. Deterministic
   ([Array.iter] order), and not self-rescheduling so [run] still drains. *)
let anti_entropy t =
  Array.iter (fun sn -> if sn.alive then ae_snode t sn) t.snodes

(* Divergence injection oracle: store a stamped cell straight into one
   snode's tables, bypassing every message — the tool tests and benches
   use to manufacture a known replica divergence for anti-entropy to
   find. *)
let plant t ~snode ?(origin = -1) ~key ~value ~ts () =
  if snode < 0 || snode >= Array.length t.snodes then
    invalid_arg "Runtime.plant: snode out of range";
  let origin = if origin < 0 then snode else origin in
  let point = Hash.string t.space key in
  ignore (Store.store t.store snode ~point ~key (Versioned.cell ~value ~ts ~origin ()))

(* {!Store.audit} of every live snode, in snode order. *)
let merkle_audit t =
  Array.to_list t.snodes
  |> List.concat_map (fun sn ->
         if sn.alive then Store.audit t.store sn.sid ~rmap:sn.rmap else [])

(* Per-span replica agreement: every replica of every partition must
   hold an identical cell set. Empty iff anti-entropy has converged. *)
let replica_divergence t =
  let findings = ref [] in
  let bad fmt = Format.kasprintf (fun s -> findings := s :: !findings) fmt in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun sn ->
      if sn.alive then
        List.iter
          (fun (span, set) ->
            if not (Hashtbl.mem seen span) then begin
              Hashtbl.add seen span ();
              let up = List.filter (fun sid -> t.snodes.(sid).alive) set in
              match up with
              | [] | [ _ ] -> ()
              | first :: rest ->
                  let ref_digest = Store.digest t.store first span in
                  List.iter
                    (fun sid ->
                      let d = Store.digest t.store sid span in
                      if d <> ref_digest then
                        bad "span %a: snode %d digest %x/%d <> snode %d %x/%d"
                          Span.pp span sid (snd d) (fst d) first
                          (snd ref_digest) (fst ref_digest))
                    rest
            end)
          (Point_map.to_list sn.rmap))
    t.snodes;
  List.rev !findings

type ae_stats = Store.ae_stats = {
  ae_roots : int;
  ae_requests : int;
  ae_frames : int;
  ae_leaves : int;
  ae_keys_sent : int;
}

let ae_stats t = Store.ae_stats t.store

let remove_vnode t ~id k =
  let host = id.Vnode_id.snode in
  if host < 0 || host >= Array.length t.snodes then
    invalid_arg "Runtime.remove_vnode: vnode id names no snode";
  let token = fresh_token t (Cb_remove k) in
  t.pending <- t.pending + 1;
  Engine.schedule t.engine ~delay:0. (fun () ->
      send t ~src:0 ~dst:host
        (Wire.Remove_request { leaving = id; origin = 0; token }))

let run ?until t = Engine.run ?until t.engine
let pending_operations t = t.pending
let completed_creations t = t.done_creations
let completed_puts t = t.done_puts
let completed_gets t = t.done_gets
let completed_ranges t = t.done_ranges
let retries t = t.retried

let sigma_qv t =
  let quotas =
    Array.to_list t.snodes
    |> List.concat_map (fun sn ->
           Vtbl.fold (fun _ v acc -> v :: acc) sn.locals [])
    |> List.map (fun v ->
           Dht_stats.Descriptive.sum
             (Array.of_list (List.map (Span.quota t.space) v.spans)))
    |> Array.of_list
  in
  Metrics.sigma_percent quotas

(* ------------------------------------------------------------------ *)
(* Verification hooks                                                   *)

let space t = t.space
let pmin t = t.pmin
let vmax t = t.vmax
let set_on_commit t f = t.on_commit <- f
let set_recorder t f = t.recorder <- f

let flush_lingering t = Transport.flush_lingering t.tr

(* A [View] is the cluster's logical state as pure, canonically-ordered
   data: what the paper's invariants and the schedule-transparency tests
   quantify over. Version stamps are deliberately excluded — they embed
   virtual timestamps, which shift under batching even when the logical
   state is identical. *)
module View = struct
  type lpdr_copy = {
    group : Group_id.t;
    level : int;
    epoch : int;
    counts : Plan.lpdr;
  }

  type vnode_view = {
    vid : Vnode_id.t;
    group : Group_id.t;
    spans : Span.t list;
    data : (string * string) list;
  }

  type snode_view = {
    sid : int;
    up : bool;
    vnodes : vnode_view list;
    lpdrs : lpdr_copy list;
    cache : (Span.t * Vnode_id.t) list;
    rmap : (Span.t * int list) list;
    replicas : (string * string) list;
    hints : int;
  }

  type t = { at : float; snodes : snode_view list }
end

let view t =
  let vnode_of v =
    {
      View.vid = v.vid;
      group = v.group;
      spans = List.sort Span.compare v.spans;
      data = Store.bindings v.data;
    }
  in
  let snode_of sn =
    {
      View.sid = sn.sid;
      up = sn.alive;
      vnodes =
        Vtbl.fold (fun _ v acc -> vnode_of v :: acc) sn.locals []
        |> List.sort (fun a b -> Vnode_id.compare a.View.vid b.View.vid);
      lpdrs =
        Handover.fold_lpdrs sn.ho
          (fun gid (lp : Handover.lpdr) acc ->
            {
              View.group = gid;
              level = lp.level;
              epoch = lp.epoch;
              counts =
                List.sort (fun (a, _) (b, _) -> Vnode_id.compare a b) lp.counts;
            }
            :: acc)
          []
        |> List.sort (fun (a : View.lpdr_copy) (b : View.lpdr_copy) ->
               Group_id.compare a.group b.group);
      cache = Route.snapshot t.route sn.sid;
      rmap = Point_map.to_list sn.rmap;
      replicas = Store.replica_bindings t.store sn.sid;
      hints = Hashtbl.length sn.hints;
    }
  in
  {
    View.at = Engine.now t.engine;
    snodes = Array.to_list t.snodes |> List.map snode_of;
  }
