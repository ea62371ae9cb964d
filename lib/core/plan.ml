module Rng = Dht_prng.Rng

type lpdr = (Vnode_id.t * int) list

let move_decreases_sigma ~from_count ~to_count =
  (* Moving one partition keeps the total (hence the mean) unchanged, so
     σ(Pv) decreases iff Σ Pv² does. The move changes Σ Pv² by
     (a-1)² + (b+1)² - a² - b² = 2(b - a + 1), negative iff b < a - 1. *)
  to_count < from_count - 1

let check_count fn ~pmin c =
  if c < pmin || c > 2 * pmin then
    invalid_arg (Printf.sprintf "Plan.%s: count outside [Pmin, Pmax]" fn)

type assignment = { donor : Vnode_id.t; give : int }

type t = {
  split_all : bool;
  assignments : assignment list;
  newcomer_count : int;
  final_counts : lpdr;
}

let creation ~pmin ~counts ~newcomer =
  if counts = [] then invalid_arg "Plan.creation: empty LPDR";
  let pmax = 2 * pmin in
  (* One pass: how many vnodes hold each count, and how many ids sort
     below the newcomer's. *)
  let hist = Array.make (pmax + 1) 0 in
  let rec scan members below = function
    | [] -> (members, below)
    | (id, c) :: rest ->
        check_count "creation" ~pmin c;
        hist.(c) <- hist.(c) + 1;
        let o = Vnode_id.compare id newcomer in
        if o = 0 then invalid_arg "Plan.creation: newcomer already in LPDR";
        scan (members + 1) (if o < 0 then below + 1 else below) rest
  in
  let members, below = scan 0 0 counts in
  let split_all = hist.(pmin) = members in
  if split_all then begin
    hist.(pmax) <- hist.(pmin);
    hist.(pmin) <- 0
  end;
  (* Greedy §2.5 on the histogram: take from the current maximum while
     handing one more partition to the newcomer decreases σ(Pv). Every
     vnode that started at or above the final maximum [level] comes down
     to it, and the first [taken] of those in id order give one more. *)
  let level = ref pmax in
  while hist.(!level) = 0 do
    decr level
  done;
  let reached = ref hist.(!level) and taken = ref 0 and got = ref 0 in
  let top () = if !taken = !reached then !level - 1 else !level in
  while move_decreases_sigma ~from_count:(top ()) ~to_count:!got do
    if !taken = !reached then begin
      decr level;
      reached := !reached + hist.(!level);
      taken := 0
    end;
    incr taken;
    incr got
  done;
  let level = !level and taken = !taken and got = !got in
  let assignments = ref [] in
  (* The resulting LPDR, with the newcomer after the [below] smaller ids;
     entries that do not change are shared with [counts]. *)
  let[@tail_mod_cons] rec final rank below = function
    | l when below = 0 -> (newcomer, got) :: final rank (-1) l
    | [] -> []
    | ((id, c) as entry) :: rest ->
        let before = if split_all then 2 * c else c in
        if before < level then
          (if split_all then (id, before) else entry)
          :: final rank (below - 1) rest
        else begin
          let after = if rank < taken then level - 1 else level in
          if after < before then
            assignments :=
              { donor = id; give = before - after } :: !assignments;
          (if after = c then entry else (id, after))
          :: final (rank + 1) (below - 1) rest
        end
  in
  let final_counts = final 0 below counts in
  {
    split_all;
    assignments = List.rev !assignments;
    newcomer_count = got;
    final_counts;
  }

(* The greedy's order at one extreme of an LPDR: every vnode holding the
   extreme count, smallest id first. A taken vnode steps one partition
   toward the middle; once all vnodes at the extreme have been taken they
   sit one level in, next to the vnodes that started there, and the walk
   goes on at that level in id order. Vnodes are positions in the
   id-sorted LPDR, so id order is position order, and a walk costs
   O(V + takes) in all. *)
type walker = {
  step : int;  (* -1 walks down from the maximum, +1 up from the minimum *)
  starting : int list array;  (* positions by starting count, ascending *)
  mutable level : int;  (* the count of every vnode in [ahead] *)
  mutable ahead : int list;  (* not yet taken at [level], ascending *)
  mutable taken : int list;  (* taken at [level], descending *)
}

let walker ~pmin ~step counts =
  let starting = Array.make ((2 * pmin) + 1) [] in
  for p = Array.length counts - 1 downto 0 do
    starting.(counts.(p)) <- p :: starting.(counts.(p))
  done;
  let pick = if step < 0 then max else min in
  let level = Array.fold_left pick counts.(0) counts in
  { step; starting; level; ahead = starting.(level); taken = [] }

(* The count of the vnode the next [take] returns. *)
let extreme w = if w.ahead = [] then w.level + w.step else w.level

let rec merge a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: _ when x < y -> x :: merge a' b
  | _, y :: b' -> y :: merge a b'

let rec take w =
  match w.ahead with
  | p :: rest ->
      w.ahead <- rest;
      w.taken <- p :: w.taken;
      p
  | [] ->
      w.level <- w.level + w.step;
      w.ahead <- merge (List.rev w.taken) w.starting.(w.level);
      w.taken <- [];
      take w

type move = { src : Vnode_id.t; dst : Vnode_id.t; n : int }

type removal = { moves : move list; removal_counts : lpdr }

let removal ~pmin ~counts ~leaving =
  if not (List.exists (fun (id, _) -> Vnode_id.equal id leaving) counts) then
    invalid_arg "Plan.removal: leaving vnode not in LPDR";
  List.iter (fun (_, c) -> check_count "removal" ~pmin c) counts;
  let nv = List.length counts in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  if nv = 1 then Error `Last_vnode
  else if total > (nv - 1) * 2 * pmin then Error `Insufficient_capacity
  else begin
    let survivors =
      Array.of_list
        (List.filter (fun (id, _) -> not (Vnode_id.equal id leaving)) counts)
    in
    let count = Array.map snd survivors in
    let id p = fst survivors.(p) in
    (* Record movements in order, coalescing consecutive same-pair moves. *)
    let moves = ref [] in
    let record src dst =
      match !moves with
      | { src = s; dst = d; n } :: rest
        when Vnode_id.equal s src && Vnode_id.equal d dst ->
          moves := { src; dst; n = n + 1 } :: rest
      | _ -> moves := { src; dst; n = 1 } :: !moves
    in
    (* Drain the departing vnode into the least-loaded survivors; the
       capacity check keeps every receiver below Pmax. *)
    let receivers = walker ~pmin ~step:1 count in
    for _ = 1 to List.assoc leaving counts do
      let p = take receivers in
      count.(p) <- count.(p) + 1;
      record leaving (id p)
    done;
    (* Equalize max→min while σ(Pv) decreases. The two walks never meet:
       whatever one side has taken stays strictly between the extremes
       until the greedy stops. *)
    let tops = walker ~pmin ~step:(-1) count in
    let bottoms = walker ~pmin ~step:1 count in
    while
      move_decreases_sigma ~from_count:(extreme tops)
        ~to_count:(extreme bottoms)
    do
      let src = take tops and dst = take bottoms in
      count.(src) <- count.(src) - 1;
      count.(dst) <- count.(dst) + 1;
      record (id src) (id dst)
    done;
    Ok
      {
        moves = List.rev !moves;
        removal_counts =
          Array.to_list (Array.mapi (fun p (v, _) -> (v, count.(p))) survivors);
      }
  end

type split = { left : lpdr; right : lpdr; newcomer_left : bool }

let split ~rng ~vmin counts =
  let members = Array.of_list counts in
  if Array.length members <> 2 * vmin then
    invalid_arg "Plan.split: the group does not hold 2*Vmin vnodes";
  Rng.shuffle rng members;
  let half first =
    Array.to_list (Array.sub members first vmin)
    |> List.sort (fun (a, _) (b, _) -> Vnode_id.compare a b)
  in
  let left = half 0 in
  let right = half vmin in
  { left; right; newcomer_left = Rng.bool rng }
