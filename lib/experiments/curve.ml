type t = { label : string; xs : float array; ys : float array }

let make ~label ~xs ~ys =
  if Array.length xs = 0 || Array.length xs <> Array.length ys then
    invalid_arg "Curve.make: empty or mismatched arrays";
  { label; xs; ys }

let of_ys ~label ys =
  let xs = Array.init (Array.length ys) (fun i -> float_of_int (i + 1)) in
  make ~label ~xs ~ys

let last t = t.ys.(Array.length t.ys - 1)
