type t = { mutable n : int; mutable mean : float }

let create () = { n = 0; mean = 0. }

let add t x =
  t.n <- t.n + 1;
  t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n)

let count t = t.n
let mean t = if t.n = 0 then 0. else t.mean

let merge a b =
  if a.n = 0 then { n = b.n; mean = b.mean }
  else if b.n = 0 then { n = a.n; mean = a.mean }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    { n; mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) }
  end
