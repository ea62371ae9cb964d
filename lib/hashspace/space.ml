type t = { bits : int }

let create ~bits =
  if bits < 1 || bits > 62 then invalid_arg "Space.create: bits outside [1, 62]";
  { bits }

let default = create ~bits:52
let bits t = t.bits
let size t = 1 lsl t.bits
let contains t i = i >= 0 && i < size t
let max_level t = t.bits
let quota t width = float_of_int width /. float_of_int (size t)
