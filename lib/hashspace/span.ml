type t = { level : int; index : int }

let root = { level = 0; index = 0 }

let make sp ~level ~index =
  if level < 0 || level > Space.max_level sp then
    invalid_arg "Span.make: level outside [0, Bh]";
  if index < 0 || index >= 1 lsl level then
    invalid_arg "Span.make: index outside [0, 2^level)";
  { level; index }

let level t = t.level
let index t = t.index
let size sp t = 1 lsl (Space.bits sp - t.level)
let start sp t = t.index * size sp t
let stop sp t = start sp t + size sp t
let quota _sp t = 1. /. float_of_int (1 lsl t.level)

let split sp t =
  if t.level >= Space.max_level sp then
    invalid_arg "Span.split: already at maximum level";
  ( { level = t.level + 1; index = 2 * t.index },
    { level = t.level + 1; index = (2 * t.index) + 1 } )

let parent t =
  if t.level = 0 then None
  else Some { level = t.level - 1; index = t.index / 2 }

let contains sp t p =
  Space.contains sp p && p lsr (Space.bits sp - t.level) = t.index

let of_point sp ~level p =
  if not (Space.contains sp p) then invalid_arg "Span.of_point: point outside space";
  if level < 0 || level > Space.max_level sp then
    invalid_arg "Span.of_point: level outside [0, Bh]";
  { level; index = p lsr (Space.bits sp - level) }

let overlap a b =
  if a.level <= b.level then b.index lsr (b.level - a.level) = a.index
  else a.index lsr (a.level - b.level) = b.index

let compare a b =
  (* Compare fractional starts index/2^level without materialising a space:
     align both indices to the deeper of the two levels (the shifted values
     stay below 2^max_level <= 2^62, so no overflow). *)
  let lmax = if a.level > b.level then a.level else b.level in
  let sa = a.index lsl (lmax - a.level) and sb = b.index lsl (lmax - b.level) in
  let c = Stdlib.compare sa sb in
  if c <> 0 then c else Stdlib.compare a.level b.level

let equal a b = a.level = b.level && a.index = b.index
let pp ppf t = Format.fprintf ppf "span(l=%d, i=%d)" t.level t.index
