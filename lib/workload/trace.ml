module Rng = Dht_prng.Rng

let uniform ~n ~period =
  if n < 0 then invalid_arg "Trace.uniform: negative n";
  if period <= 0. then invalid_arg "Trace.uniform: period must be positive";
  Array.init n (fun i -> float_of_int (i + 1) *. period)

let poisson ~rng ~n ~rate =
  if n < 0 then invalid_arg "Trace.poisson: negative n";
  let t = ref 0. in
  Array.init n (fun _ ->
      t := !t +. Rng.exponential rng ~rate;
      !t)
