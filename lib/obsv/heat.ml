(* All fields are floats, so the record is stored flat and a charge
   writes unboxed numbers. The charge count is a float too: it is exact
   up to 2^53 and leaves through [count] as an [int]. *)
type cell = {
  tau : float;
  mutable value : float;
  mutable last : float;
  mutable count : float;
}

let cell ~tau =
  if tau <= 0. then invalid_arg "Heat.cell: tau must be positive";
  { tau; value = 0.; last = neg_infinity; count = 0. }

let[@inline] decayed c ~now =
  if c.last = neg_infinity || c.value = 0. then 0.
  else if now <= c.last then c.value
  else c.value *. exp (-.(now -. c.last) /. c.tau)

let[@inline] charge c ~now ?weight () =
  let weight = match weight with Some w -> w | None -> 1. in
  c.value <- decayed c ~now +. weight;
  c.last <- (if c.last = neg_infinity then now else Float.max c.last now);
  c.count <- c.count +. 1.

let value c ~now = decayed c ~now
let count c = int_of_float c.count

(* ------------------------------------------------------------------ *)
(* Skew summaries over a load vector. *)

let gini loads =
  let n = Array.length loads in
  if n = 0 then 0.
  else begin
    let xs = Array.copy loads in
    Array.sort compare xs;
    let total = Array.fold_left ( +. ) 0. xs in
    if total <= 0. then 0.
    else begin
      let weighted = ref 0. in
      Array.iteri (fun i x -> weighted := !weighted +. (float_of_int (i + 1) *. x)) xs;
      let n = float_of_int n in
      (2. *. !weighted /. (n *. total)) -. ((n +. 1.) /. n)
    end
  end

let sigma_pct loads =
  let n = Array.length loads in
  if n = 0 then 0.
  else begin
    let total = Array.fold_left ( +. ) 0. loads in
    let mean = total /. float_of_int n in
    if mean = 0. then 0.
    else begin
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. loads
        /. float_of_int n
      in
      100. *. sqrt var /. mean
    end
  end
