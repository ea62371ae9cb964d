(* An all-float record is stored flat, so advancing the clock on every
   dispatch writes an unboxed float instead of allocating one. *)
type clock = { mutable now : float }

type t = {
  queue : (unit -> unit) Heap.t;
  clock : clock;
  mutable seq : int;
  mutable dispatched : int;
  mutable max_pending : int;
  mutable horizon : float;  (* [run] never dispatches past this time *)
}

exception Past_horizon of float

let create () =
  { queue = Heap.create ~dummy:ignore (); clock = { now = 0. }; seq = 0;
    dispatched = 0; max_pending = 0; horizon = infinity }

let now t = t.clock.now

let[@inline] at t ~time f =
  if not (Float.is_finite time) then invalid_arg "Engine.at: non-finite time";
  if time < t.clock.now then invalid_arg "Engine.at: time in the past";
  Heap.push t.queue ~time ~seq:t.seq f;
  t.seq <- t.seq + 1;
  let len = Heap.length t.queue in
  if len > t.max_pending then t.max_pending <- len

let schedule t ~delay f =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg "Engine.schedule: negative or non-finite delay";
  at t ~time:(t.clock.now +. delay) f

(* Cancellable timers: cancellation marks the handle dead; the queue entry
   stays and fires as a no-op. Deletion stays lazy because [run] advances
   the clock over the dead entry, and later [now]-relative schedules see
   that clock. *)
type handle = { mutable pending : bool }

let schedule_cancellable t ~delay f =
  let h = { pending = true } in
  schedule t ~delay (fun () ->
      if h.pending then begin
        h.pending <- false;
        f ()
      end);
  h

let cancel h = h.pending <- false

(* Reusable timer slots: one callback closure and one trampoline are
   allocated when the slot is created; re-arming only pushes a queue entry.
   Lazy deletion again — a stale entry fires as a no-op because either the
   slot is disarmed or the clock has not reached the latest deadline. *)
(* Flat like [clock], so re-arming writes the deadline unboxed. *)
type deadline = { mutable due : float }

type timer = {
  tm_engine : t;
  tm_cb : unit -> unit;
  deadline : deadline;
  mutable tm_armed : bool;
  mutable trampoline : unit -> unit;
}

let timer t f =
  let tm =
    { tm_engine = t; tm_cb = f; deadline = { due = 0. }; tm_armed = false;
      trampoline = ignore }
  in
  tm.trampoline <-
    (fun () ->
      if tm.tm_armed && t.clock.now >= tm.deadline.due then begin
        tm.tm_armed <- false;
        tm.tm_cb ()
      end);
  tm

let arm tm ~delay =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg "Engine.arm: negative or non-finite delay";
  let t = tm.tm_engine in
  let time = t.clock.now +. delay in
  tm.deadline.due <- time;
  tm.tm_armed <- true;
  at t ~time tm.trampoline

let disarm tm = tm.tm_armed <- false
let armed tm = tm.tm_armed

let pending t = Heap.length t.queue
let dispatched t = t.dispatched
let max_pending t = t.max_pending

(* Dispatch the queue's head, which is due at [time]. Inlined, so neither
   [step] nor [run] allocates: the time stays unboxed from [min_time] to the
   clock. *)
let[@inline] dispatch t time =
  t.clock.now <- time;
  let f = Heap.pop_min t.queue in
  t.dispatched <- t.dispatched + 1;
  f ()

let step t =
  if Heap.is_empty t.queue then false
  else begin
    dispatch t (Heap.min_time t.queue);
    true
  end

let set_horizon t horizon =
  if Float.is_nan horizon then invalid_arg "Engine.set_horizon: NaN";
  t.horizon <- horizon

let run ?(until = infinity) t =
  let stop = Float.min until t.horizon in
  let q = t.queue in
  let continue = ref true in
  while !continue && not (Heap.is_empty q) do
    let time = Heap.min_time q in
    if time <= stop then dispatch t time
    else begin
      continue := false;
      if time <= until then raise (Past_horizon t.horizon)
    end
  done
