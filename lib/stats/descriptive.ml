let sum xs =
  (* Kahan compensated summation: quotas are many small floats whose sum is
     compared against exactly 1.0 in tests. *)
  let total = ref 0. and comp = ref 0. in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !total +. y in
      comp := t -. !total -. y;
      total := t)
    xs;
  !total

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else sum xs /. float_of_int n

let moment2_about xs about =
  let acc = Array.map (fun x -> (x -. about) *. (x -. about)) xs in
  sum acc

let stddev_about xs ~about =
  let n = Array.length xs in
  if n < 1 then 0. else sqrt (moment2_about xs about /. float_of_int n)

let rel_stddev_about xs ~about =
  if about = 0. then invalid_arg "Descriptive.rel_stddev_about: about = 0";
  stddev_about xs ~about /. about

let percentile xs ~p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.percentile: empty array";
  if p < 0. || p > 1. then invalid_arg "Descriptive.percentile: p outside [0, 1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
