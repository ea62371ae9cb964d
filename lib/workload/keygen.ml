module Rng = Dht_prng.Rng

let hex = "0123456789abcdef"

let uniform rng =
  String.init 16 (fun _ -> hex.[Rng.int rng 16])

module Zipf = struct
  type t = { n : int; cdf : float array }

  let create ~n ~s =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    if s < 0. then invalid_arg "Zipf.create: s must be non-negative";
    let weights = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0. weights in
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    Array.iteri
      (fun i w ->
        acc := !acc +. (w /. total);
        cdf.(i) <- !acc)
      weights;
    cdf.(n - 1) <- 1.;
    { n; cdf }

  let sample t rng =
    let u = Rng.float rng in
    (* First index whose cumulative mass reaches u. *)
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if t.cdf.(mid) < u then bisect (mid + 1) hi else bisect lo mid
    in
    1 + bisect 0 (t.n - 1)

  let key t rng = "item" ^ string_of_int (sample t rng)

  let expected_frequency t ~rank =
    if rank < 1 || rank > t.n then invalid_arg "Zipf.expected_frequency: rank";
    let lo = if rank = 1 then 0. else t.cdf.(rank - 2) in
    t.cdf.(rank - 1) -. lo
end

module Population = struct
  (* Keys are derived, not stored: member [i] is ["pop-" ^ i], so a
     million-key population costs nothing until a key is materialized,
     and two populations of the same size agree across processes and
     runs. *)
  type t = { size : int }

  let create ~size () =
    if size < 1 then invalid_arg "Keygen.Population.create: size < 1";
    { size }

  let size t = t.size
  let nth t i =
    if i < 0 || i >= t.size then invalid_arg "Keygen.Population.nth: index";
    "pop-" ^ string_of_int i

  let sample t rng = nth t (Rng.int rng t.size)
end
