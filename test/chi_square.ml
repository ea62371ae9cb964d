(* Fixed-width-bin histograms and a chi-square uniformity check: the
   reference the uniformity tests of the PRNG and the key hash compare
   against.

   [create ~lo ~hi ~bins] covers [lo, hi) with [bins] equal bins; values
   outside the range are counted as underflow or overflow. For [b] bins
   the statistic has [b - 1] degrees of freedom under the null
   hypothesis. *)

type t = {
  lo : float;
  hi : float;
  counts : int array;
  mutable total : int;
  mutable underflow : int;
  mutable overflow : int;
}

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Chi_square.create: bins must be positive";
  if hi <= lo then invalid_arg "Chi_square.create: hi <= lo";
  { lo; hi; counts = Array.make bins 0; total = 0; underflow = 0; overflow = 0 }

let add t x =
  if x < t.lo then t.underflow <- t.underflow + 1
  else if x >= t.hi then t.overflow <- t.overflow + 1
  else begin
    let bins = Array.length t.counts in
    let idx =
      int_of_float (float_of_int bins *. ((x -. t.lo) /. (t.hi -. t.lo)))
    in
    (* Rounding can land exactly on [bins] when x is just below hi. *)
    let idx = if idx >= bins then bins - 1 else idx in
    t.counts.(idx) <- t.counts.(idx) + 1;
    t.total <- t.total + 1
  end

let counts t = Array.copy t.counts
let total t = t.total
let underflow t = t.underflow
let overflow t = t.overflow

let uniform t =
  if t.total = 0 then invalid_arg "Chi_square.uniform: empty";
  let bins = Array.length t.counts in
  let expected = float_of_int t.total /. float_of_int bins in
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expected in
      acc +. (d *. d /. expected))
    0. t.counts
