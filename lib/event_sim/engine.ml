type t = {
  queue : (unit -> unit) Heap.t;
  mutable clock : float;
  mutable seq : int;
  mutable dispatched : int;
  mutable max_pending : int;
  mutable horizon : float;  (* [run] never dispatches past this time *)
}

exception Past_horizon of float

let create () =
  { queue = Heap.create ~dummy:ignore (); clock = 0.; seq = 0; dispatched = 0;
    max_pending = 0; horizon = infinity }

let now t = t.clock

let at t ~time f =
  if not (Float.is_finite time) then invalid_arg "Engine.at: non-finite time";
  if time < t.clock then invalid_arg "Engine.at: time in the past";
  Heap.push t.queue ~time ~seq:t.seq f;
  t.seq <- t.seq + 1;
  let len = Heap.length t.queue in
  if len > t.max_pending then t.max_pending <- len

let schedule t ~delay f =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg "Engine.schedule: negative or non-finite delay";
  at t ~time:(t.clock +. delay) f

(* Cancellable timers: cancellation marks the handle dead; the queue entry
   stays and fires as a no-op (lazy deletion keeps the heap simple). *)
type handle = { mutable state : [ `Pending | `Fired | `Cancelled ] }

let schedule_cancellable t ~delay f =
  let h = { state = `Pending } in
  schedule t ~delay (fun () ->
      if h.state = `Pending then begin
        h.state <- `Fired;
        f ()
      end);
  h

let cancel h = if h.state = `Pending then h.state <- `Cancelled
let is_pending h = h.state = `Pending

(* Reusable timer slots: one callback closure and one trampoline are
   allocated when the slot is created; re-arming only pushes a queue entry.
   Lazy deletion again — a stale entry fires as a no-op because either the
   slot is disarmed or the clock has not reached the latest deadline. *)
type timer = {
  tm_engine : t;
  tm_cb : unit -> unit;
  mutable deadline : float;
  mutable tm_armed : bool;
  mutable trampoline : unit -> unit;
}

let timer t f =
  let tm =
    { tm_engine = t; tm_cb = f; deadline = 0.; tm_armed = false;
      trampoline = ignore }
  in
  tm.trampoline <-
    (fun () ->
      if tm.tm_armed && t.clock >= tm.deadline then begin
        tm.tm_armed <- false;
        tm.tm_cb ()
      end);
  tm

let arm tm ~delay =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg "Engine.arm: negative or non-finite delay";
  let t = tm.tm_engine in
  tm.deadline <- t.clock +. delay;
  tm.tm_armed <- true;
  at t ~time:tm.deadline tm.trampoline

let disarm tm = tm.tm_armed <- false
let armed tm = tm.tm_armed

let pending t = Heap.length t.queue
let dispatched t = t.dispatched
let max_pending t = t.max_pending

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some (time, _, f) ->
      t.clock <- time;
      t.dispatched <- t.dispatched + 1;
      f ();
      true

let set_horizon t horizon =
  if Float.is_nan horizon then invalid_arg "Engine.set_horizon: NaN";
  t.horizon <- horizon

let run ?(until = infinity) ?(max_events = max_int) t =
  let stop = Float.min until t.horizon in
  let dispatched = ref 0 in
  let continue = ref true in
  while !continue && !dispatched < max_events do
    match Heap.peek_time t.queue with
    | Some time when time <= stop ->
        ignore (step t);
        incr dispatched
    | Some time ->
        continue := false;
        if time <= until then raise (Past_horizon t.horizon)
    | None -> continue := false
  done
