open Dht_core
open Dht_hashspace
module Gtbl = Hashtbl.Make (Group_id)

type lpdr = { mutable level : int; mutable epoch : int; mutable counts : Plan.lpdr }

type kind = [ `Create | `Remove | `Balance ]

type donation = {
  dst : Vnode_id.t;
  spans : Span.t list;
  data : (string * Dht_kv.Versioned.cell) list;
  reps : int list;
}

type env = {
  now : unit -> float;
  next_event : unit -> int;
  split : Plan.lpdr -> Plan.split;
  hosts : Vnode_id.t -> bool;
}

type input =
  | Msg of { from : int; msg : Wire.msg }
  | Prepared of { from : int; msg : Wire.msg; shipped : donation list }
  | Resume of Group_id.t
  | Watchdog of int
  | Restart

type action =
  | Send of int * Wire.msg
  | Local of Wire.msg
  | Resume_next of Group_id.t
  | Arm_watchdog of int
  | Clear_watchdog of int
  | Note_timeout of int
  | Apply of { to_vnode : Vnode_id.t; spans : Span.t list;
               data : (string * Dht_kv.Versioned.cell) list }
  | Lpdr_applied of { group : Group_id.t; epoch : int; local : Vnode_id.t list }
  | Drop_vnode of Vnode_id.t
  | Place of Wire.placement
  | Seed of Span.t list
  | Committed of int
  | Observe_prepare of { event : int; start : float; participants : int }
  | Observe_event of { event : int; kind : kind; start : float }
  | Skipped

(* Coordinator-side state of one in-flight balancing event (creation,
   removal or load-driven partition swap). *)
type event = {
  reply : (int * Wire.msg) option;
      (* completion message and the snode it goes to; [None] for load
         swaps, which have no requester waiting *)
  lock : Group_id.t;
  kind : kind;
  start : float;  (* virtual time the coordinator planned the event *)
  mutable acks : int;
  mutable moved : Wire.placement;
  participants : int list;
  mutable waits : int;  (* All_received notifications still expected *)
  mutable committed : bool;
}

(* What a commit does to one LPDR copy: retire it, install a fresh one,
   or (a departure) update the counts of the copy held. *)
type copy = Retire | Install of { level : int; counts : Plan.lpdr } | Update of Plan.lpdr

(* One fenced LPDR write, applied at commit when [epoch] is fresher than
   everything applied for [group] so far; [local] are this snode's vnodes
   that then belong to [group]. *)
type write = { group : Group_id.t; epoch : int; copy : copy; local : Vnode_id.t list }

(* Participant-side state of one event, made by whichever lands first: its
   prepare or a Transfer that overtook it. Identity changes (LPDRs, group
   fields) wait for Commit, so concurrent events keep serializing through
   the group's manager until the event is durable. *)
type part = {
  mutable coordinator : int;  (* -1 until the prepare lands *)
  mutable want : int;  (* Transfer batches this snode receives *)
  mutable got : int;
  mutable applied : Span.t list;  (* spans of every batch applied so far *)
  mutable early : Wire.msg list;  (* Transfers that overtook the prepare, latest first *)
  mutable writes : write list;  (* the commit's LPDR effects, in order *)
  mutable leaving : Vnode_id.t option;  (* departing vnode hosted here *)
  mutable committed : bool;
}

(* A group lock at its manager: held by one event, later requests queue. *)
type lock = { mutable busy : bool; waiting : Wire.msg Queue.t }

type t = {
  sid : int;
  snodes : int;
  pmin : int;
  vmax : int;
  replicated : bool;  (* rfactor > 1: commits fan out, owners seed replicas *)
  lpdrs : lpdr Gtbl.t;
  (* Highest LPDR epoch ever applied, per group, never deleted: commits
     arrive reliably but not in order, so LPDR writes are fenced on it. *)
  epochs : int Gtbl.t;
  (* The same for placements: the event whose commit last set each span's
     placement. A span moves again only after its previous move committed,
     so event ids grow along its history, and a late commit must not
     overwrite a fresher replica set. Covers the whole space. *)
  fence : int Point_map.t;
  locks : lock Gtbl.t;
  events : (int, event) Hashtbl.t;
  parts : (int, part) Hashtbl.t;
  mutable out : action list;  (* the current step's actions, latest first *)
}

let create ~sid ~snodes ~pmin ~vmax ~replicated ~space spans =
  let fence = Point_map.create space in
  (* Fence below any real event id: the first commit always applies. *)
  List.iter (fun s -> Point_map.add fence s (-1)) spans;
  { sid; snodes; pmin; vmax; replicated; lpdrs = Gtbl.create 8;
    epochs = Gtbl.create 8; fence; locks = Gtbl.create 8;
    events = Hashtbl.create 8; parts = Hashtbl.create 8; out = [] }

let bootstrap st group lp =
  Gtbl.replace st.lpdrs group lp;
  Gtbl.replace st.epochs group lp.epoch

let lpdr st group = Gtbl.find_opt st.lpdrs group
let fold_lpdrs st f acc = Gtbl.fold f st.lpdrs acc
let emit st a = st.out <- a :: st.out

(* The snodes hosting a group's members, sorted. *)
let group_snodes counts =
  List.sort_uniq compare (List.map (fun (id, _) -> id.Vnode_id.snode) counts)

let local_members st counts =
  List.filter_map
    (fun (id, _) -> if id.Vnode_id.snode = st.sid then Some id else None)
    counts

(* [true] when [e] is fresher than everything applied for [gid] so far; the
   high-water mark advances as a side effect. *)
let epoch_note st gid e =
  match Gtbl.find_opt st.epochs gid with
  | Some cur when cur >= e -> false
  | Some _ | None ->
      Gtbl.replace st.epochs gid e;
      true

let manager_of lpdr =
  match lpdr.counts with
  | [] -> invalid_arg "Handover: empty LPDR"
  | (first, _) :: _ -> first.Vnode_id.snode

(* ---------------- coordinator ---------------- *)

let lock st group =
  match Gtbl.find_opt st.locks group with
  | Some l -> l
  | None ->
      let l = { busy = false; waiting = Queue.create () } in
      Gtbl.add st.locks group l;
      l

(* Release [group]'s lock; queued requests are admitted one at a time by
   [Resume], after the actions emitted so far have run. *)
let unlock st group =
  let l = lock st group in
  l.busy <- false;
  if not (Queue.is_empty l.waiting) then emit st (Resume_next group)

(* Open a balancing event at the group manager, which holds [group]'s
   lock: allocate its id, record the coordinator state, arm the watchdog
   and send the prepare [msg event] to every participant. [waits] is the
   number of All_received notices the event completes on. *)
let open_event env st ~group ~kind ~reply ~waits ~participants msg =
  let participants = List.sort_uniq compare participants in
  let ev = env.next_event () in
  Hashtbl.add st.events ev
    { reply; lock = group; kind; start = env.now (); acks = List.length participants;
      moved = []; participants; waits; committed = false };
  emit st (Arm_watchdog ev);
  let prepare = msg ev in
  List.iter (fun p -> emit st (Send (p, prepare))) participants

let start_creation env st group lpdr ~newcomer ~origin =
  let split, target, target_counts =
    if List.length lpdr.counts = st.vmax then begin
      (* §3.7: full victim group splits into two random halves of Vmin. *)
      let halves = env.split lpdr.counts in
      let left_members = halves.Plan.left
      and right_members = halves.Plan.right in
      let gl, gr = Group_id.split group in
      let split =
        { Wire.parent = group; left = gl; left_members; right = gr;
          right_members }
      in
      if halves.Plan.newcomer_left then (Some split, gl, left_members)
      else (Some split, gr, right_members)
    end
    else (None, group, lpdr.counts)
  in
  let plan = Plan.creation ~pmin:st.pmin ~counts:target_counts ~newcomer in
  open_event env st ~group ~kind:`Create
    ~reply:(Some (origin, Wire.Create_done { newcomer }))
    ~waits:1
    ~participants:(newcomer.Vnode_id.snode :: group_snodes lpdr.counts)
    (fun event ->
      Wire.Prepare
        { event; split; target; level_before = lpdr.level;
          epoch_before = lpdr.epoch; plan; newcomer;
          donor_batches = List.length plan.Plan.assignments })

let start_removal env st group lpdr ~leaving ~origin ~token =
  let refuse () =
    emit st (Send (origin, Wire.Remove_done { token; ok = false }));
    unlock st group
  in
  (* L2 floor: groups never shrink below Vmin — except group 0 while it is
     the only group (no split has happened yet, so only it carries the root
     identifier). *)
  let sole = Group_id.equal group Group_id.root in
  let vg = List.length lpdr.counts in
  if (not sole) && vg <= st.vmax / 2 then refuse ()
  else
    match Plan.removal ~pmin:st.pmin ~counts:lpdr.counts ~leaving with
    | Error (`Last_vnode | `Insufficient_capacity) -> refuse ()
    | Ok plan ->
        (* One All_received per snode hosting a receiving vnode. *)
        let receivers =
          List.sort_uniq compare
            (List.map (fun m -> m.Plan.dst.Vnode_id.snode) plan.Plan.moves)
        in
        open_event env st ~group ~kind:`Remove
          ~reply:(Some (origin, Wire.Remove_done { token; ok = true }))
          ~waits:(List.length receivers)
          ~participants:(group_snodes lpdr.counts)
          (fun event ->
            Wire.Remove_prepare
              { event; group; leaving; epoch_before = lpdr.epoch;
                moves = plan.Plan.moves; remaining = plan.Plan.removal_counts })

(* Coordinate a load-driven partition swap (the manager holds the group
   lock, exactly as for creations and removals). The heavy vnode gives its
   hot partition to a group member hosted on the light snode, which gives
   its coldest partition back: per-vnode counts are unchanged, so the
   event never touches LPDRs — only placement moves, through the standard
   Prepare_ack/Commit round. Validation runs against the {e current} LPDR
   copy; the initiating report may be stale (the vnode gone, the group
   reshaped), in which case the swap is dropped, not retried — the next
   balance round will propose from fresh load data. *)
let start_swap env st group lpdr ~hot ~from_vnode ~to_snode =
  let abort () =
    emit st Skipped;
    unlock st group
  in
  let from_count =
    Option.value (List.assoc_opt from_vnode lpdr.counts) ~default:0
  in
  (* Swap counterpart: a group member hosted on the light snode with a
     partition to give back; the smallest id (LPDRs are in id order). *)
  let to_vnode =
    List.find_opt
      (fun (id, c) ->
        id.Vnode_id.snode = to_snode && c >= 1
        && not (Vnode_id.equal id from_vnode))
      lpdr.counts
  in
  if from_count < 1 || from_vnode.Vnode_id.snode = to_snode then abort ()
  else
    match to_vnode with
    | None -> abort ()
    | Some (to_vnode, _) ->
        (* One Transfer lands at each side, so each side reports one
           All_received. *)
        open_event env st ~group ~kind:`Balance ~reply:None ~waits:2
          ~participants:[ from_vnode.Vnode_id.snode; to_snode ]
          (fun event -> Wire.Lb_swap { event; hot; from_vnode; to_vnode })

(* Admission of a placement change at the manager of its group: forward
   [msg] if we no longer manage the group, queue it behind the event
   holding the group lock, or take the lock and start the event. A group
   that no longer exists here (it split away) re-resolves a creation from
   its point, re-sends a departure to the leaving vnode's snode and drops
   a swap (the next balance round re-proposes from fresh reports). *)
let admit env st msg =
  let group, gone, start =
    match msg with
    | Wire.Create_at_group { group; point; newcomer; origin } ->
        ( group,
          Local
            (Wire.Routed
               { point; hops = 0; retries = 0; origin; op = Wire.Op_create { newcomer } }),
          fun lpdr -> start_creation env st group lpdr ~newcomer ~origin )
    | Wire.Remove_at_group { group; leaving; origin; token } ->
        ( group,
          Send (leaving.Vnode_id.snode, Wire.Remove_request { leaving; origin; token }),
          fun lpdr -> start_removal env st group lpdr ~leaving ~origin ~token )
    | Wire.Lb_transfer { group; hot; from_vnode; to_snode; _ } ->
        (group, Skipped, fun lpdr -> start_swap env st group lpdr ~hot ~from_vnode ~to_snode)
    | _ -> invalid_arg "Handover: not a placement-change request"
  in
  match Gtbl.find_opt st.lpdrs group with
  | None -> emit st gone
  | Some lpdr ->
      let manager = manager_of lpdr in
      if manager <> st.sid then emit st (Send (manager, msg))
      else
        let l = lock st group in
        if l.busy then Queue.add msg l.waiting
        else begin
          l.busy <- true;
          start lpdr
        end

let maybe_complete st id (ev : event) =
  if ev.committed && ev.waits = 0 then begin
    Hashtbl.remove st.events id;
    emit st (Clear_watchdog id);
    emit st (Observe_event { event = id; kind = ev.kind; start = ev.start });
    Option.iter (fun (dst, m) -> emit st (Send (dst, m))) ev.reply;
    unlock st ev.lock
  end

(* ---------------- participant ---------------- *)

let part st event =
  match Hashtbl.find_opt st.parts event with
  | Some r -> r
  | None ->
      let r = { coordinator = -1; want = 0; got = 0; applied = []; early = [];
                writes = []; leaving = None; committed = false } in
      Hashtbl.add st.parts event r;
      r

(* A participant's record is done once every batch landed and the commit
   applied. *)
let retire_if_done st event r =
  if r.committed && r.got = r.want then Hashtbl.remove st.parts event

let apply_batch st event r ~to_vnode ~spans ~data =
  emit st (Apply { to_vnode; spans; data });
  r.got <- r.got + 1;
  (* Kept only when there are replicas to seed below. *)
  if st.replicated then r.applied <- r.applied @ spans;
  if r.got = r.want then begin
    emit st (Send (r.coordinator, Wire.All_received { event }));
    (* If the commit already installed the replica map for these spans
       (Commit overtook the Transfers), seed the replicas now, with every
       batch's spans: the commit may have overtaken any of them. *)
    if st.replicated then emit st (Seed r.applied);
    r.applied <- [];
    retire_if_done st event r
  end

let transfer st = function
  | Wire.Transfer { event; to_vnode; spans; data } as msg ->
      let r = part st event in
      if r.coordinator >= 0 then apply_batch st event r ~to_vnode ~spans ~data
      else r.early <- msg :: r.early
  | _ -> ()

(* The commit's LPDR effects at this snode, recorded at prepare time in
   application order: the split parent, the left half, the right half,
   then the target group. *)
let writes_of st = function
  | Wire.Prepare p ->
      let e = p.Wire.epoch_before + 1 in
      let plan = p.Wire.plan in
      let put gid ~level counts =
        let local = local_members st counts in
        { group = gid; epoch = e; local;
          copy = (if local <> [] then Install { level; counts } else Retire) }
      in
      let target =
        put p.Wire.target
          ~level:(p.Wire.level_before + if plan.Plan.split_all then 1 else 0)
          plan.Plan.final_counts
      in
      (match p.Wire.split with
      | None -> [ target ]
      | Some s ->
          let half gid members =
            if Group_id.equal gid p.Wire.target then []
            else [ put gid ~level:p.Wire.level_before members ]
          in
          ({ group = s.Wire.parent; epoch = e; copy = Retire; local = [] }
           :: half s.Wire.left s.Wire.left_members)
          @ half s.Wire.right s.Wire.right_members
          @ [ target ])
  | Wire.Remove_prepare { group; epoch_before; remaining; _ } ->
      let copy = if local_members st remaining <> [] then Update remaining else Retire in
      [ { group; epoch = epoch_before + 1; copy; local = [] } ]
  | _ -> []

(* A prepare (creation, departure or swap) after the runtime made this
   snode's donations: ship each donation, expect this snode's batches
   (applying any that overtook the prepare), record the commit's effects,
   then acknowledge with the moved placements. *)
let prepared st ~from msg shipped =
  let here (v : Vnode_id.t) = v.snode = st.sid in
  let event, want, leaving =
    match msg with
    | Wire.Prepare p ->
        (p.Wire.event, (if here p.Wire.newcomer then p.Wire.donor_batches else 0), None)
    | Wire.Remove_prepare { event; moves; leaving; _ } ->
        ( event,
          List.length (List.filter (fun m -> here m.Plan.dst) moves),
          if here leaving then Some leaving else None )
    | Wire.Lb_swap { event; _ } -> (event, 1, None)
    | _ -> invalid_arg "Handover: not a prepare"
  in
  let moved =
    List.fold_left
      (fun moved d ->
        emit st
          (Send
             ( d.dst.Vnode_id.snode,
               Wire.Transfer { event; to_vnode = d.dst; spans = d.spans; data = d.data } ));
        List.map (fun s -> (s, d.dst, d.reps)) d.spans @ moved)
      [] shipped
  in
  let r = part st event in
  r.coordinator <- from;
  r.want <- want;
  r.writes <- writes_of st msg;
  r.leaving <- leaving;
  let early = List.rev r.early in
  r.early <- [];
  List.iter (transfer st) early;
  emit st (Send (from, Wire.Prepare_ack { event; moved }))

let commit env st ~event ~moved =
  (match Hashtbl.find_opt st.parts event with
  | Some r when r.coordinator >= 0 && not r.committed ->
      r.committed <- true;
      (* Departed vnode: delete its (now empty) local record. This action
         is unique to the event, so it runs regardless of the fence. *)
      Option.iter (fun v -> emit st (Drop_vnode v)) r.leaving;
      List.iter
        (fun w ->
          if epoch_note st w.group w.epoch then begin
            (match w.copy with
            | Retire -> Gtbl.remove st.lpdrs w.group
            | Install { level; counts } ->
                Gtbl.replace st.lpdrs w.group { level; epoch = w.epoch; counts }
            | Update counts -> (
                match Gtbl.find_opt st.lpdrs w.group with
                | Some lp ->
                    lp.counts <- counts;
                    lp.epoch <- w.epoch
                | None -> ()));
            emit st (Lpdr_applied { group = w.group; epoch = w.epoch; local = w.local })
          end)
        r.writes;
      r.writes <- [];
      retire_if_done st event r
  | Some _ | None -> ());
  (* Placement of the moved partitions, fenced per fragment: only the parts
     of each span last set by an older event take this commit's placement
     (a newer commit may have overtaken it, possibly for a sub-span). When
     every span is whole and fresh, the usual case, [moved] goes as is. *)
  let placed =
    if
      List.for_all
        (fun (s, _, _) ->
          match Point_map.overlapping st.fence s with
          | [ (fs, fev) ] -> fev < event && Span.level fs <= Span.level s
          | _ -> false)
        moved
    then moved
    else
      List.concat_map
        (fun (s, owner, reps) ->
          List.filter_map
            (fun (fs, fev) ->
              if fev < event then
                Some ((if Span.level fs > Span.level s then fs else s), owner, reps)
              else None)
            (Point_map.overlapping st.fence s))
        moved
  in
  List.iter (fun (part, _, _) -> Point_map.learn st.fence part event) placed;
  if placed <> [] then emit st (Place placed);
  (* New owner already holds the data (Transfer preceded this Commit):
     seed the freshly-assigned replicas now. The symmetric hook in
     [apply_batch] covers the Commit-first ordering. *)
  if st.replicated then begin
    let seeds =
      List.filter_map
        (fun (s, owner, _) ->
          if owner.Vnode_id.snode = st.sid && env.hosts owner then Some s else None)
        moved
    in
    if seeds <> [] then emit st (Seed seeds)
  end;
  emit st (Committed event)

(* ---------------- dispatch ---------------- *)

let on_msg env st ~from msg =
  match msg with
  | Wire.Create_at_group _ | Wire.Remove_at_group _ | Wire.Lb_transfer _ ->
      admit env st msg
  | Wire.Prepare_ack { event; moved } -> (
      match Hashtbl.find_opt st.events event with
      | None -> failwith "Handover: ack for unknown event"
      | Some (ev : event) ->
          ev.moved <- moved @ ev.moved;
          ev.acks <- ev.acks - 1;
          if ev.acks = 0 then begin
            ev.committed <- true;
            let participants = List.length ev.participants in
            emit st (Observe_prepare { event; start = ev.start; participants });
            (* With replication on, every snode carries a replica map, so
               the commit fans out cluster-wide: placement never straddles
               a stale map on a quorum coordinator. *)
            let targets =
              if st.replicated then List.init st.snodes Fun.id else ev.participants
            in
            let msg = Wire.Commit { event; moved = ev.moved } in
            List.iter (fun pt -> if pt <> st.sid then emit st (Send (pt, msg))) targets;
            (* The coordinator applies its own commit synchronously: when
               the completion below unlocks the group and admits the next
               event, the local LPDR must already be post-event. *)
            commit env st ~event ~moved:ev.moved;
            maybe_complete st event ev
          end)
  | Wire.Transfer _ -> transfer st msg
  | Wire.All_received { event } -> (
      match Hashtbl.find_opt st.events event with
      | None -> failwith "Handover: completion for unknown event"
      | Some (ev : event) ->
          ev.waits <- ev.waits - 1;
          maybe_complete st event ev)
  | Wire.Commit { event; moved } -> commit env st ~event ~moved
  | Wire.Lpdr_pull { group } ->
      (* Crash recovery: a restarted member asks for a fresh copy. Reply
         with ours (we may not be the manager any more if the group moved;
         [None] lets the puller wait for the in-flight commit instead). *)
      let view =
        Option.map (fun lp -> (lp.level, lp.epoch, lp.counts)) (Gtbl.find_opt st.lpdrs group)
      in
      emit st (Send (from, Wire.Lpdr_push { group; view }))
  | Wire.Lpdr_push { view = None; _ } -> ()
  | Wire.Lpdr_push { group; view = Some (level, epoch, counts) } -> (
      (* Epoch fence: apply only strictly fresher views, and only while we
         still carry the group (a commit may have retired it). *)
      if epoch_note st group epoch then
        match Gtbl.find_opt st.lpdrs group with
        | Some lp ->
            lp.level <- level;
            lp.epoch <- epoch;
            lp.counts <- counts
        | None -> ())
  | _ -> invalid_arg "Handover: not a placement-change message"

let step env st input =
  (match input with
  | Msg { from; msg } -> on_msg env st ~from msg
  | Prepared { from; msg; shipped } -> prepared st ~from msg shipped
  | Resume group -> (
      let l = lock st group in
      match if l.busy then None else Queue.take_opt l.waiting with
      | None -> ()
      | Some msg ->
          (* Forwarded or dropped rather than started: on to the next. *)
          admit env st msg;
          if not l.busy then unlock st group)
  | Watchdog ev ->
      (* While the event is open: count a round timeout and re-arm. *)
      if Hashtbl.mem st.events ev then begin
        emit st (Note_timeout ev);
        emit st (Arm_watchdog ev)
      end
  | Restart ->
      (* Refresh the LPDR copies no in-flight commit of ours will
         overwrite (no prepared event of ours writes them): events may have
         committed while we were down, and our durable copies can be stale.
         Pulls are epoch-fenced. *)
      let pending gid =
        Hashtbl.fold
          (fun _ r acc -> acc || List.exists (fun w -> Group_id.equal w.group gid) r.writes)
          st.parts false
      in
      Gtbl.iter
        (fun gid lp ->
          if not (pending gid) then begin
            let manager = manager_of lp in
            if manager <> st.sid then
              emit st (Send (manager, Wire.Lpdr_pull { group = gid }))
          end)
        st.lpdrs);
  let out = List.rev st.out in
  st.out <- [];
  out
