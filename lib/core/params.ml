module Space = Dht_hashspace.Space

type t = { space : Space.t; pmin : int; vmin : int }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* vmin for the global approach: a power of two large enough that Vmax is
   unreachable, yet 2 * vmin does not overflow. *)
let unbounded_vmin = 1 lsl 60

let make ?(space = Space.default) ~pmin ~vmin () =
  if not (is_power_of_two pmin) then
    invalid_arg "Params.make: pmin must be a positive power of two";
  if not (is_power_of_two vmin) then
    invalid_arg "Params.make: vmin must be a positive power of two";
  { space; pmin; vmin }

let log2_exact n =
  if not (is_power_of_two n) then
    invalid_arg "Params.log2_exact: not a positive power of two";
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let global ?space ~pmin () = make ?space ~pmin ~vmin:unbounded_vmin ()

let check_quorum ~rfactor ~read_quorum ~write_quorum =
  if rfactor < 1 then invalid_arg "Params.check_quorum: rfactor must be >= 1";
  if read_quorum < 1 || read_quorum > rfactor then
    invalid_arg "Params.check_quorum: read quorum outside [1, rfactor]";
  if write_quorum < 1 || write_quorum > rfactor then
    invalid_arg "Params.check_quorum: write quorum outside [1, rfactor]";
  if read_quorum + write_quorum <= rfactor then
    invalid_arg
      "Params.check_quorum: R + W must exceed rfactor (quorum intersection)"
let pmax t = 2 * t.pmin
let vmax t = 2 * t.vmin
