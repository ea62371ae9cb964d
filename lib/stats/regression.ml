type fit = { slope : float; intercept : float; r2 : float }

let fit ~xs ~ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Regression.fit: length mismatch";
  if n < 2 then invalid_arg "Regression.fit: need at least 2 points";
  let mx = Descriptive.mean xs and my = Descriptive.mean ys in
  let sxx = ref 0. and sxy = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. dy);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0. then invalid_arg "Regression.fit: all xs equal";
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let r2 = if !syy = 0. then 1. else !sxy *. !sxy /. (!sxx *. !syy) in
  { slope; intercept; r2 }
