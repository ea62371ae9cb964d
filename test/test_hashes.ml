(* Tests for Dht_hashes.Hash: reference vectors and distribution sanity. *)

module Hash = Dht_hashes.Hash
module Space = Dht_hashspace.Space

let check = Alcotest.check

let test_fnv1a_vectors () =
  (* Official FNV-1a 64-bit test vectors. *)
  check Alcotest.int64 "empty" 0xcbf29ce484222325L (Hash.fnv1a64 "");
  check Alcotest.int64 "a" 0xaf63dc4c8601ec8cL (Hash.fnv1a64 "a");
  check Alcotest.int64 "foobar" 0x85944171f73967e8L (Hash.fnv1a64 "foobar")

let test_fnv1a_sensitivity () =
  check Alcotest.bool "one-char difference" true
    (Hash.fnv1a64 "key1" <> Hash.fnv1a64 "key2");
  check Alcotest.bool "order matters" true (Hash.fnv1a64 "ab" <> Hash.fnv1a64 "ba")

let test_mix64_avalanche () =
  (* Consecutive integers must map to very different words: count differing
     bits between mix64 i and mix64 (i+1); expect near 32 on average. *)
  let popcount x =
    let rec go acc x = if x = 0L then acc else go (acc + 1) Int64.(logand x (sub x 1L)) in
    go 0 x
  in
  let total = ref 0 in
  for i = 0 to 999 do
    let d = Int64.logxor (Hash.mix64 (Int64.of_int i)) (Hash.mix64 (Int64.of_int (i + 1))) in
    total := !total + popcount d
  done;
  let avg = float_of_int !total /. 1000. in
  check Alcotest.bool (Printf.sprintf "avg flipped bits %.1f in [24, 40]" avg)
    true
    (avg > 24. && avg < 40.)

let test_mix64_deterministic () =
  check Alcotest.int64 "stable" (Hash.mix64 123456789L) (Hash.mix64 123456789L)

let test_to_space_bounds () =
  let sp = Space.create ~bits:20 in
  for i = 0 to 999 do
    let h = Hash.to_space sp (Hash.mix64 (Int64.of_int i)) in
    check Alcotest.bool "within space" true (Space.contains sp h)
  done;
  let full = Hash.to_space sp 0xFFFFFFFFFFFFFFFFL in
  check Alcotest.int "all-ones maps to max" (Space.size sp - 1) full;
  check Alcotest.int "zero maps to 0" 0 (Hash.to_space sp 0L)

let test_string_distribution () =
  (* Sequential keys must spread evenly across 16 buckets of the space. *)
  let sp = Space.create ~bits:32 in
  let hist = Chi_square.create ~lo:0. ~hi:1. ~bins:16 in
  for i = 0 to 15_999 do
    let h = Hash.string sp (Printf.sprintf "user:%d" i) in
    Chi_square.add hist (Space.quota sp h)
  done;
  let chi2 = Chi_square.uniform hist in
  check Alcotest.bool (Printf.sprintf "chi2 %.1f < 45" chi2) true (chi2 < 45.)

let test_int_distribution () =
  let sp = Space.create ~bits:32 in
  let hist = Chi_square.create ~lo:0. ~hi:1. ~bins:16 in
  for i = 0 to 15_999 do
    Chi_square.add hist (Space.quota sp (Hash.to_space sp (Hash.mix64 (Int64.of_int i))))
  done;
  let chi2 = Chi_square.uniform hist in
  check Alcotest.bool (Printf.sprintf "chi2 %.1f < 45" chi2) true (chi2 < 45.)

let prop_string_stable =
  QCheck.Test.make ~name:"string hashing is a pure function" ~count:200
    QCheck.string (fun s ->
      Hash.string Space.default s = Hash.string Space.default s)

let prop_in_space =
  QCheck.Test.make ~name:"hashes land inside the space" ~count:500
    QCheck.string (fun s ->
      Space.contains Space.default (Hash.string Space.default s))

let suite =
  [
    Alcotest.test_case "fnv1a reference vectors" `Quick test_fnv1a_vectors;
    Alcotest.test_case "fnv1a sensitivity" `Quick test_fnv1a_sensitivity;
    Alcotest.test_case "mix64 avalanche" `Quick test_mix64_avalanche;
    Alcotest.test_case "mix64 deterministic" `Quick test_mix64_deterministic;
    Alcotest.test_case "to_space bounds" `Quick test_to_space_bounds;
    Alcotest.test_case "string key distribution" `Quick test_string_distribution;
    Alcotest.test_case "int key distribution" `Quick test_int_distribution;
    QCheck_alcotest.to_alcotest prop_string_stable;
    QCheck_alcotest.to_alcotest prop_in_space;
  ]
