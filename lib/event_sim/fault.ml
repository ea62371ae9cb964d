module Rng = Dht_prng.Rng

type t = {
  rng : Rng.t;
  mutable drop_p : float;
  mutable dup_p : float;
  mutable jitter : float;
  slow : (int, float) Hashtbl.t;  (* snode -> service-time factor, > 1 *)
  down : (int, unit) Hashtbl.t;
  crash_plan : (int * float * float) list;
  mutable drops : int;
  mutable duplicates : int;
}

let check_probability name p =
  if not (Float.is_finite p) || p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Fault.%s: probability outside [0, 1]" name)

let check_jitter j =
  if not (Float.is_finite j) || j < 0. then
    invalid_arg "Fault.jitter: negative or non-finite"

(* Two windows for the same snode must not overlap (a second window would
   silently shadow the first in the runtime's restart scheduling), and
   exact duplicates are rejected for the same reason. Windows are half-open
   [at, back_at), so one may start exactly when another ends. *)
let check_crash_plan crashes =
  List.iter
    (fun (snode, at, back_at) ->
      if snode < 0 then invalid_arg "Fault.create: negative snode in crash plan";
      if not (Float.is_finite at) || not (Float.is_finite back_at) || at < 0.
         || back_at <= at
      then invalid_arg "Fault.create: crash plan needs 0 <= at < back_at")
    crashes;
  let rec overlaps = function
    | [] -> ()
    | (s, at, back_at) :: rest ->
        List.iter
          (fun (s', at', back_at') ->
            if s = s' && at < back_at' && at' < back_at then
              invalid_arg
                (Printf.sprintf
                   "Fault.create: overlapping crash windows for snode %d \
                    ([%g, %g) and [%g, %g))"
                   s at back_at at' back_at'))
          rest;
        overlaps rest
  in
  overlaps crashes

let create ?(drop = 0.) ?(duplicate = 0.) ?(jitter = 0.) ?(crashes = []) ~seed
    () =
  check_probability "drop" drop;
  check_probability "duplicate" duplicate;
  check_jitter jitter;
  check_crash_plan crashes;
  {
    rng = Rng.of_int seed;
    drop_p = drop;
    dup_p = duplicate;
    jitter;
    slow = Hashtbl.create 8;
    down = Hashtbl.create 8;
    crash_plan = crashes;
    drops = 0;
    duplicates = 0;
  }

let set_drop t p =
  check_probability "set_drop" p;
  t.drop_p <- p

let set_duplicate t p =
  check_probability "set_duplicate" p;
  t.dup_p <- p

let set_jitter t j =
  check_jitter j;
  t.jitter <- j

let crash_plan t = t.crash_plan

let set_slow t s factor =
  if not (Float.is_finite factor) || factor < 1. then
    invalid_arg "Fault.set_slow: factor must be finite and >= 1";
  if s < 0 then invalid_arg "Fault.set_slow: negative snode";
  Hashtbl.replace t.slow s factor

let clear_slow t s = Hashtbl.remove t.slow s

(* The lookups below run for every remote send or delivery, and a fault
   plan usually slows and downs nothing: an empty table answers without
   hashing a key. *)
let slow_factor t ~dst =
  if Hashtbl.length t.slow = 0 then 1.
  else Option.value ~default:1. (Hashtbl.find_opt t.slow dst)

let set_down t s = Hashtbl.replace t.down s ()
let set_up t s = Hashtbl.remove t.down s

let cut t =
  if t.drop_p > 0. && Rng.float t.rng < t.drop_p then begin
    t.drops <- t.drops + 1;
    true
  end
  else false

let duplicate t =
  if t.dup_p > 0. && Rng.float t.rng < t.dup_p then begin
    t.duplicates <- t.duplicates + 1;
    true
  end
  else false

let[@inline] delay_noise t =
  if t.jitter > 0. then Rng.float t.rng *. t.jitter else 0.

let absorb t ~dst =
  if Hashtbl.length t.down > 0 && Hashtbl.mem t.down dst then begin
    t.drops <- t.drops + 1;
    true
  end
  else false

let drops t = t.drops
let duplicates t = t.duplicates
