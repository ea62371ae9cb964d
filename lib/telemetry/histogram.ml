module Welford = Dht_stats.Welford

type t = {
  lo : float;
  growth : float;
  log_growth : float;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable moments : Welford.t;
  mutable vmax : float;
}

let create ?(lo = 1e-6) ?(growth = 2.) ?(bins = 64) () =
  if lo <= 0. || not (Float.is_finite lo) then
    invalid_arg "Telemetry.Histogram.create: lo must be positive";
  if growth <= 1. || not (Float.is_finite growth) then
    invalid_arg "Telemetry.Histogram.create: growth must exceed 1";
  if bins <= 0 then invalid_arg "Telemetry.Histogram.create: bins <= 0";
  {
    lo;
    growth;
    log_growth = log growth;
    counts = Array.make bins 0;
    underflow = 0;
    overflow = 0;
    moments = Welford.create ();
    vmax = nan;
  }

let same_shape a b =
  a.lo = b.lo && a.growth = b.growth
  && Array.length a.counts = Array.length b.counts

let bins t = Array.length t.counts

let bucket_bounds t i =
  if i < 0 || i >= bins t then
    invalid_arg "Telemetry.Histogram.bucket_bounds: bucket out of range";
  (t.lo *. (t.growth ** float_of_int i), t.lo *. (t.growth ** float_of_int (i + 1)))

let bucket_index t x =
  if x < t.lo then -1
  else begin
    let i = int_of_float (Float.floor (log (x /. t.lo) /. t.log_growth)) in
    let i = if i < 0 then 0 else if i >= bins t then bins t else i in
    (* The log can drift one bucket off at the exact geometric boundaries;
       nudge so half-open bucket semantics hold bit-for-bit. *)
    let lower i = t.lo *. (t.growth ** float_of_int i) in
    if i < bins t && x >= lower (i + 1) then min (i + 1) (bins t)
    else if i > 0 && x < lower i then i - 1
    else i
  end

let observe t x =
  if x < 0. || not (Float.is_finite x) then
    invalid_arg "Telemetry.Histogram.observe: negative or non-finite value";
  (match bucket_index t x with
  | -1 -> t.underflow <- t.underflow + 1
  | i when i >= bins t -> t.overflow <- t.overflow + 1
  | i -> t.counts.(i) <- t.counts.(i) + 1);
  Welford.add t.moments x;
  if Float.is_nan t.vmax || x > t.vmax then t.vmax <- x

let count t = Welford.count t.moments
let mean t = Welford.mean t.moments
let max_value t = t.vmax

let buckets t =
  let acc = ref [] in
  if t.overflow > 0 then
    acc := (t.lo *. (t.growth ** float_of_int (bins t)), infinity, t.overflow) :: !acc;
  for i = bins t - 1 downto 0 do
    if t.counts.(i) > 0 then
      let lo, hi = bucket_bounds t i in
      acc := (lo, hi, t.counts.(i)) :: !acc
  done;
  if t.underflow > 0 then acc := (0., t.lo, t.underflow) :: !acc;
  !acc

let quantile t q =
  if q < 0. || q > 1. || Float.is_nan q then
    invalid_arg "Telemetry.Histogram.quantile: q outside [0, 1]";
  let n = count t in
  if n = 0 then nan
  else begin
    (* Rank of the q-th observation (1-based, ceiling), then walk the
       cumulative counts: underflow, buckets, overflow. *)
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    if rank <= t.underflow then t.lo
    else begin
      let seen = ref t.underflow in
      let result = ref nan in
      let i = ref 0 in
      while Float.is_nan !result && !i < bins t do
        seen := !seen + t.counts.(!i);
        if rank <= !seen then result := snd (bucket_bounds t !i);
        incr i
      done;
      if Float.is_nan !result then t.vmax
      else
        (* Never report past the largest observation: keeps the estimate
           conservative yet tight for sparsely-filled top buckets. *)
        Float.min !result t.vmax
    end
  end

let merge a b =
  if not (same_shape a b) then
    invalid_arg "Telemetry.Histogram.merge: shape mismatch";
  let t = create ~lo:a.lo ~growth:a.growth ~bins:(bins a) () in
  Array.iteri (fun i c -> t.counts.(i) <- c + b.counts.(i)) a.counts;
  t.underflow <- a.underflow + b.underflow;
  t.overflow <- a.overflow + b.overflow;
  t.moments <- Welford.merge a.moments b.moments;
  t.vmax <-
    (if Float.is_nan a.vmax then b.vmax
     else if Float.is_nan b.vmax then a.vmax
     else Float.max a.vmax b.vmax);
  t
