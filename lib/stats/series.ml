type t = { len : int; cells : Welford.t array }

let create ~len =
  if len < 0 then invalid_arg "Series.create: negative length";
  { len; cells = Array.init len (fun _ -> Welford.create ()) }

let length t = t.len
let runs t = if t.len = 0 then 0 else Welford.count t.cells.(0)

let add_run t curve =
  if Array.length curve <> t.len then
    invalid_arg "Series.add_run: curve length mismatch";
  Array.iteri (fun i x -> Welford.add t.cells.(i) x) curve

let mean t = Array.map Welford.mean t.cells
