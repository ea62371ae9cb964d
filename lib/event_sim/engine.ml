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
let clock t = t.clock

(* Queue [f] at [time] and return its payload slot. Inlined, like [at], so
   the time reaches the heap unboxed. *)
let[@inline] push t ~time f =
  if not (Float.is_finite time) then invalid_arg "Engine.at: non-finite time";
  if time < t.clock.now then invalid_arg "Engine.at: time in the past";
  let slot = Heap.push t.queue ~time ~seq:t.seq f in
  t.seq <- t.seq + 1;
  let len = Heap.length t.queue in
  if len > t.max_pending then t.max_pending <- len;
  slot

let clear t slot f = Heap.clear t.queue slot f

let[@inline] at t ~time f = ignore (push t ~time f)

let schedule t ~delay f =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg "Engine.schedule: negative or non-finite delay";
  at t ~time:(t.clock.now +. delay) f

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
