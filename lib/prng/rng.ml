(* The xoshiro256++ state: four 64-bit words in 32 raw bytes, read and
   written in native byte order. Mutable [int64] record fields would box
   every store (a fresh block and a write barrier per word per draw);
   byte-level access keeps each word unboxed, so a draw allocates
   nothing once [bits64] is inlined into its caller. *)
type t = Bytes.t

let[@inline] s0 t = Bytes.get_int64_ne t 0
let[@inline] s1 t = Bytes.get_int64_ne t 8
let[@inline] s2 t = Bytes.get_int64_ne t 16
let[@inline] s3 t = Bytes.get_int64_ne t 24

let of_words a b c d =
  let t = Bytes.create 32 in
  Bytes.set_int64_ne t 0 a;
  Bytes.set_int64_ne t 8 b;
  Bytes.set_int64_ne t 16 c;
  Bytes.set_int64_ne t 24 d;
  t

(* SplitMix64: used only to expand the seed into the 256-bit xoshiro state.
   Constants from Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators". *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let sm = ref seed in
  let s0 = splitmix64_next sm in
  let s1 = splitmix64_next sm in
  let s2 = splitmix64_next sm in
  let s3 = splitmix64_next sm in
  (* The all-zero state is a fixed point of xoshiro; SplitMix64 cannot emit
     four zero words in a row, but guard anyway. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let of_int seed = create ~seed:(Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++ next step, on locals: each word is read once and written
   once. *)
let[@inline] bits64 t =
  let open Int64 in
  let s0 = s0 t and s1 = s1 t and s2 = s2 t and s3 = s3 t in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 (logxor s2 tmp);
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let split t = create ~seed:(bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFFL in
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub mask (Int64.rem mask bound64) in
  let r = ref (Int64.logand (bits64 t) mask) in
  while !r > limit do
    r := Int64.logand (bits64 t) mask
  done;
  Int64.to_int (Int64.rem !r bound64)

let[@inline] float t =
  (* 53 top bits scaled into [0, 1). *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. 0x1.0p-53

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t a ~k =
  let n = Array.length a in
  if k < 0 || k > n then invalid_arg "Rng.sample: k out of range";
  let pool = Array.copy a in
  (* Partial Fisher–Yates: after i swaps, pool.(0..i-1) is a uniform sample. *)
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  Array.sub pool 0 k

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  (* Inverse transform; 1. -. float t is in (0, 1] so log is finite. *)
  -.log (1. -. float t) /. rate

let pp ppf t =
  Format.fprintf ppf "xoshiro256++{%Lx;%Lx;%Lx;%Lx}" (s0 t) (s1 t) (s2 t) (s3 t)
