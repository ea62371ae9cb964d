(* Exhaustive breadth-first check of the placement-change protocol
   ({!Dht_snode.Handover}) on three snodes, driven the way the runtime
   drives it: a delivered prepare comes with the donation a model runtime
   makes, and every action is carried out on that model.

   The search covers every delivery order of the messages in flight, and
   one crash and restart of any snode at every step. Visited states are
   hashed, so the search is a walk over a finite graph. The network model
   is the transport's contract: a remote message is retransmitted until
   its destination takes it, so it may arrive after any other, and a
   self-addressed message survives its snode's crash (it waits until the
   restart). In every state the search reaches:
   - no snode applies the same group epoch twice;
   and in every terminal state (nothing left in flight):
   - every event the scenario opened completed at its coordinator, and
     the requester heard the outcome;
   - each span an event moved was seeded at its owner's snode at a point
     where both its data (the Transfer) and its placement (the Commit) had
     arrived there.
   A state deeper than [max_depth] steps fails the search: every round
   must complete within a bounded number of steps. *)

open Dht_core
open Dht_hashspace
module H = Dht_snode.Handover
module Wire = Dht_snode.Wire

let space = Space.default
let pmin = 4
let max_depth = 64

(* One state of the search: every snode's protocol state, the model
   runtime's vnodes, the messages in flight, and what the properties
   track. *)
type world = {
  hs : H.t array;
  mutable vnodes : (Vnode_id.t * Span.t list) list array;
      (* per snode, each vnode's spans in the runtime's order: donations
         take from the head *)
  mutable flight : (int * int * Wire.msg) list;  (* src, dst, msg; sorted *)
  mutable crashed : bool;  (* the one crash was used *)
  mutable armed : (int * int) list;  (* snode, event: armed watchdogs *)
  mutable next_event : int;
  mutable opened : int list;
  mutable completed : int list;
  mutable answered : int;  (* Create_done / Remove_done heard *)
  mutable epochs : (int * Group_id.t * int) list;  (* applied LPDR writes *)
  mutable data : (int * Span.t) list;  (* spans whose batch landed at a snode *)
  mutable placed : (int * Span.t) list;  (* owner snode learned the placement *)
  mutable seeded : (int * Span.t) list;  (* seeded after data and placement *)
}

exception Violation of string

let violation fmt = Format.kasprintf (fun s -> raise (Violation s)) fmt
let add x l = List.sort_uniq compare (x :: l)

(* The world the model's environment callbacks read. *)
let cur = ref None
let world () = Option.get !cur

let env sid =
  {
    H.now = (fun () -> 0.);
    next_event =
      (fun () ->
        let w = world () in
        let e = w.next_event in
        w.next_event <- e + 1;
        e);
    (* A fixed §3.7 split: the first half of the members in id order goes
       left, with the newcomer. *)
    split =
      (fun counts ->
        let n = List.length counts / 2 in
        {
          Plan.left = List.filteri (fun i _ -> i < n) counts;
          right = List.filteri (fun i _ -> i >= n) counts;
          newcomer_left = true;
        });
    hosts = (fun v -> List.mem_assoc v (world ()).vnodes.(sid));
  }

let envs = Array.init 3 env

let spans_of w sid v =
  try List.assoc v w.vnodes.(sid) with Not_found -> violation "no vnode here"

let set_spans w sid v spans =
  w.vnodes.(sid) <-
    List.sort compare ((v, spans) :: List.remove_assoc v w.vnodes.(sid))

(* The model runtime's donation: [give] spans off the head of [v]. *)
let take w sid v give =
  let spans = spans_of w sid v in
  let taken = List.filteri (fun i _ -> i < give) spans in
  set_spans w sid v (List.filteri (fun i _ -> i >= give) spans);
  taken

let donation dst spans =
  { H.dst; spans; data = []; reps = [ dst.Vnode_id.snode ] }

let donate w sid = function
  | Wire.Prepare p ->
      let plan = p.Wire.plan and newcomer = p.Wire.newcomer in
      if plan.Plan.split_all then
        List.iter
          (fun (id, _) ->
            if id.Vnode_id.snode = sid && not (Vnode_id.equal id newcomer) then
              set_spans w sid id
                (List.concat_map
                   (fun s ->
                     let a, b = Span.split space s in
                     [ a; b ])
                   (spans_of w sid id)))
          plan.Plan.final_counts;
      if newcomer.Vnode_id.snode = sid then set_spans w sid newcomer [];
      List.filter_map
        (fun { Plan.donor; give } ->
          if donor.Vnode_id.snode = sid then
            Some (donation newcomer (take w sid donor give))
          else None)
        plan.Plan.assignments
  | Wire.Remove_prepare { moves; _ } ->
      List.filter_map
        (fun { Plan.src; dst; n } ->
          if src.Vnode_id.snode = sid then Some (donation dst (take w sid src n))
          else None)
        moves
  | Wire.Lb_swap { hot; from_vnode; to_vnode; _ } ->
      let from_side = from_vnode.Vnode_id.snode = sid in
      let v = if from_side then from_vnode else to_vnode in
      let spans = spans_of w sid v in
      let span = if from_side && List.mem hot spans then hot else List.hd spans in
      set_spans w sid v (List.filter (fun s -> s <> span) spans);
      [ donation (if from_side then to_vnode else from_vnode) [ span ] ]
  | _ -> []

(* Carry out one snode's actions on the model, in order. *)
let rec exec w sid = function
  | H.Send (dst, msg) -> w.flight <- List.sort compare ((sid, dst, msg) :: w.flight)
  | H.Local msg -> deliver w ~src:sid sid msg
  | H.Resume_next g -> run w sid (H.Resume g)
  | H.Arm_watchdog ev ->
      w.armed <- add (sid, ev) w.armed;
      if not (List.mem ev w.opened) then w.opened <- add ev w.opened
  | H.Clear_watchdog ev -> w.armed <- List.filter (( <> ) (sid, ev)) w.armed
  | H.Note_timeout _ | H.Committed _ | H.Observe_prepare _ -> ()
  | H.Apply { to_vnode; spans; _ } ->
      set_spans w sid to_vnode (spans @ spans_of w sid to_vnode);
      List.iter (fun s -> w.data <- add (sid, s) w.data) spans
  | H.Lpdr_applied { group; epoch; _ } ->
      if List.mem (sid, group, epoch) w.epochs then
        violation "snode %d applied epoch %d of group %a twice" sid epoch
          Group_id.pp group;
      w.epochs <- add (sid, group, epoch) w.epochs
  | H.Drop_vnode v ->
      if spans_of w sid v <> [] then violation "a departing vnode kept spans";
      w.vnodes.(sid) <- List.remove_assoc v w.vnodes.(sid)
  | H.Place placed ->
      List.iter
        (fun (span, owner, _) ->
          if owner.Vnode_id.snode = sid then w.placed <- add (sid, span) w.placed)
        placed
  | H.Seed spans ->
      List.iter
        (fun s ->
          if List.mem (sid, s) w.data && List.mem (sid, s) w.placed then
            w.seeded <- add (sid, s) w.seeded)
        spans
  | H.Observe_event { event; _ } -> w.completed <- add event w.completed
  | H.Skipped -> violation "snode %d skipped a request" sid

and run w sid input = List.iter (exec w sid) (H.step envs.(sid) w.hs.(sid) input)

and deliver w ~src sid msg =
  match msg with
  | Wire.Prepare _ | Wire.Remove_prepare _ | Wire.Lb_swap _ ->
      let shipped = donate w sid msg in
      run w sid (H.Prepared { from = src; msg; shipped })
  | Wire.Create_done _ | Wire.Remove_done _ -> w.answered <- w.answered + 1
  | msg -> run w sid (H.Msg { from = src; msg })

(* ---------------- scenarios ---------------- *)

type scenario = {
  name : string;
  vmax : int;
  level : int;  (* partitions are the spans of this level *)
  members : (Vnode_id.t * int list) list;  (* vnode, indexes of its spans *)
  request : Wire.msg;  (* sent by snode 2 to the group's manager *)
  answers : int;  (* outcome messages the requester hears *)
}

let vid snode vnode = Vnode_id.make ~snode ~vnode
let span level index = Span.make space ~level ~index

let init sc =
  let all = List.init (1 lsl sc.level) (span sc.level) in
  let counts =
    List.map (fun (v, idx) -> (v, List.length idx)) sc.members
    |> List.sort (fun (a, _) (b, _) -> Vnode_id.compare a b)
  in
  let hs =
    Array.init 3 (fun sid ->
        let st =
          H.create ~sid ~snodes:3 ~pmin ~vmax:sc.vmax ~replicated:true ~space all
        in
        if List.exists (fun (v, _) -> v.Vnode_id.snode = sid) counts then
          H.bootstrap st Group_id.root
            { H.level = sc.level; epoch = 0; counts };
        st)
  in
  let w =
    {
      hs; vnodes = Array.make 3 []; flight = [];
      crashed = false; armed = []; next_event = 0; opened = []; completed = [];
      answered = 0; epochs = []; data = []; placed = []; seeded = [];
    }
  in
  List.iter
    (fun (v, idx) -> set_spans w v.Vnode_id.snode v (List.map (span sc.level) idx))
    sc.members;
  let manager = (fst (List.hd counts)).Vnode_id.snode in
  w.flight <- [ (2, manager, sc.request) ];
  w

let range lo hi = List.init (hi - lo) (fun i -> lo + i)
let create_at newcomer = Wire.Create_at_group { group = Group_id.root; point = 0; newcomer; origin = 2 }

(* One creation per donor count: the newcomer takes from one, two or three
   donors (1-3 Transfer batches), the last on snode 0 with the manager. *)
let creations =
  [
    { name = "creation, 1 batch"; vmax = 8; level = 2;
      members = [ (vid 0 0, range 0 4) ]; request = create_at (vid 1 0); answers = 1 };
    { name = "creation, 2 batches"; vmax = 8; level = 3;
      members = [ (vid 0 0, range 0 4); (vid 1 0, range 4 8) ];
      request = create_at (vid 2 0); answers = 1 };
    { name = "creation, 3 batches"; vmax = 8; level = 4;
      members = [ (vid 0 0, range 0 6); (vid 1 0, range 6 11); (vid 2 0, range 11 16) ];
      request = create_at (vid 0 1); answers = 1 };
  ]

let others =
  [
    { name = "creation splitting a full group"; vmax = 4; level = 4;
      members =
        [ (vid 0 0, range 0 4); (vid 0 1, range 4 8); (vid 1 0, range 8 12);
          (vid 2 0, range 12 16) ];
      request = create_at (vid 1 1); answers = 1 };
    { name = "departure"; vmax = 8; level = 4;
      members = [ (vid 0 0, range 0 8); (vid 1 0, range 8 12); (vid 2 0, range 12 16) ];
      request =
        Wire.Remove_at_group
          { group = Group_id.root; leaving = vid 2 0; origin = 2; token = 0 };
      answers = 1 };
    { name = "swap"; vmax = 8; level = 4;
      members = [ (vid 0 0, range 0 6); (vid 1 0, range 6 11); (vid 2 0, range 11 16) ];
      request =
        Wire.Lb_transfer
          { group = Group_id.root; hot = span 4 2; from_vnode = vid 0 0;
            to_snode = 1; origin = 0 };
      answers = 0 };
  ]

(* ---------------- search ---------------- *)

type report = { states : int; depth : int; failure : string option }

(* Every successor of [w]: the delivery of each message in flight, and
   while no snode has crashed yet, a crash of each snode followed by its
   restart. The restart follows at once: the network may hold back any
   message for as long as it likes, so a snode that stays down for a while
   is a schedule the search covers anyway, and the restart's LPDR pulls
   only depend on the state the snode crashed in. [lossy] is a network
   where a crash also loses the snode's self-addressed messages in
   flight. *)
let successors ~lossy w =
  let deliveries = List.mapi (fun i _ -> `Deliver i) w.flight in
  let crashes = if w.crashed then [] else List.init 3 (fun sid -> `Crash sid) in
  List.map
    (fun move w ->
      match move with
      | `Deliver i ->
          let src, dst, msg = List.nth w.flight i in
          w.flight <- List.filteri (fun j _ -> j <> i) w.flight;
          deliver w ~src dst msg
      | `Crash sid ->
          w.crashed <- true;
          if lossy then
            w.flight <- List.filter (fun (s, d, _) -> not (s = sid && d = sid)) w.flight;
          run w sid H.Restart)
    (deliveries @ crashes)

let terminal_check sc w =
  if w.opened = [] then violation "no event opened";
  List.iter
    (fun ev ->
      if not (List.mem ev w.completed) then
        violation "event %d never completes (nothing left in flight)" ev)
    w.opened;
  if w.armed <> [] then violation "a watchdog stays armed";
  if w.answered <> sc.answers then violation "the requester heard %d outcomes" w.answered;
  List.iter
    (fun (sid, s) ->
      if not (List.mem (sid, s) w.seeded) then
        violation "span %a never seeded at snode %d after its data and commit"
          Span.pp s sid)
    w.placed

let search ?(lossy = false) sc =
  let root = Marshal.to_string (init sc) [] in
  let seen = Hashtbl.create 4096 in
  Hashtbl.replace seen (Digest.string root) ();
  let frontier = ref [ root ] and depth = ref 0 and failure = ref None in
  (try
     while !frontier <> [] do
       if !depth > max_depth then
         violation "a state is still open after %d steps" max_depth;
       let next = ref [] in
       List.iter
         (fun packed ->
           let w = Marshal.from_string packed 0 in
           if w.flight = [] then terminal_check sc w;
           List.iter
             (fun move ->
               let w = Marshal.from_string packed 0 in
               cur := Some w;
               move w;
               let s = Marshal.to_string w [] in
               let d = Digest.string s in
               if not (Hashtbl.mem seen d) then begin
                 Hashtbl.replace seen d ();
                 next := s :: !next
               end)
             (successors ~lossy w))
         !frontier;
       frontier := !next;
       incr depth
     done
   with Violation m -> failure := Some m);
  { states = Hashtbl.length seen; depth = !depth; failure = !failure }

let check sc () =
  let r = search sc in
  match r.failure with
  | Some m -> Alcotest.failf "%s: %s (%d states)" sc.name m r.states
  | None ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d states, depth %d" sc.name r.states r.depth)
        true (r.states > 1)

(* Self-test: under a network that loses a crashed snode's loopback
   messages, the coordinator's own prepare can vanish and the round waits
   forever; the search must report it. *)
let test_lossy_loopback () =
  match (search ~lossy:true (List.hd creations)).failure with
  | Some m ->
      Alcotest.(check bool) ("reports a round that never completes: " ^ m) true
        (String.length m > 0)
  | None -> Alcotest.fail "a lossy loopback went unnoticed"

let suite =
  List.map
    (fun sc -> Alcotest.test_case sc.name `Quick (check sc))
    (creations @ others)
  @ [ Alcotest.test_case "a lost loopback is found" `Quick test_lossy_loopback ]
