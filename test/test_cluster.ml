(* Tests for Dht_cluster: Profile, Enrollment, Topology. *)

module Profile = Dht_cluster.Profile
module Enrollment = Dht_cluster.Enrollment
module Topology = Dht_cluster.Topology
module Rng = Dht_prng.Rng

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let test_profile_validation () =
  Alcotest.check_raises "zero cpu"
    (Invalid_argument "Profile.make: resources must be strictly positive")
    (fun () -> ignore (Profile.make ~cpu:0. ~memory_gb:1. ~storage_gb:1. ()));
  Alcotest.check_raises "negative storage"
    (Invalid_argument "Profile.make: resources must be strictly positive")
    (fun () -> ignore (Profile.make ~cpu:1. ~memory_gb:1. ~storage_gb:(-1.) ()))

let test_profile_score () =
  checkf "reference scores 1" 1. (Profile.score Profile.reference);
  (* Scaling every resource by f scales the geometric mean by f. *)
  checkf "scale 2 doubles score" 2. (Profile.score (Profile.scale Profile.reference 2.));
  checkf "scale 0.5 halves score" 0.5
    (Profile.score (Profile.scale Profile.reference 0.5))

let test_profile_storage_change () =
  (* The paper's on-line repartitioning: changing storage changes the
     enrollment score monotonically. *)
  let p = Profile.reference in
  let more = { p with Profile.storage_gb = 800. } in
  check Alcotest.bool "more disk, more score" true
    (Profile.score more > Profile.score p)

let test_apportion_exact_total () =
  let scores = [| 1.; 2.; 3.; 4. |] in
  let out = Enrollment.apportion ~total:100 scores in
  check Alcotest.int "sums to total" 100 (Array.fold_left ( + ) 0 out);
  check Alcotest.(array int) "proportional" [| 10; 20; 30; 40 |] out

let test_apportion_floor () =
  (* A very weak node still receives the floor. *)
  let out = Enrollment.apportion ~min_vnodes:2 ~total:20 [| 0.001; 10.; 10. |] in
  check Alcotest.int "sums" 20 (Array.fold_left ( + ) 0 out);
  check Alcotest.bool "floor respected" true (out.(0) >= 2)

let test_apportion_largest_remainder () =
  (* 7 spare vnodes over equal thirds: remainders break the tie stably and
     the total is exact (no rounding loss). *)
  let out = Enrollment.apportion ~total:10 [| 1.; 1.; 1. |] in
  check Alcotest.int "sums" 10 (Array.fold_left ( + ) 0 out);
  let sorted = Array.copy out in
  Array.sort compare sorted;
  check Alcotest.(array int) "near-equal split" [| 3; 3; 4 |] sorted

let test_apportion_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Enrollment.apportion: no nodes")
    (fun () -> ignore (Enrollment.apportion ~total:4 [||]));
  Alcotest.check_raises "non-positive score"
    (Invalid_argument "Enrollment.apportion: non-positive score") (fun () ->
      ignore (Enrollment.apportion ~total:4 [| 1.; 0. |]));
  Alcotest.check_raises "total below floor"
    (Invalid_argument "Enrollment.apportion: total below the per-node floor")
    (fun () -> ignore (Enrollment.apportion ~total:1 [| 1.; 1. |]))

let test_ideal_shares () =
  let shares = Enrollment.ideal_shares [| 1.; 3. |] in
  checkf "first" 0.25 shares.(0);
  checkf "second" 0.75 shares.(1);
  checkf "sum" 1. (Dht_stats.Descriptive.sum shares)

let test_topology_generations () =
  let c = Topology.generations ~counts:[ (4, 1.0); (2, 2.0) ] in
  check Alcotest.int "size" 6 (Topology.size c);
  checkf "score" 8. (Dht_stats.Descriptive.sum (Topology.scores c));
  check Alcotest.string "names per generation" "gen1"
    c.Topology.nodes.(4).Profile.name;
  Alcotest.check_raises "empty" (Invalid_argument "Topology.generations: empty cluster")
    (fun () -> ignore (Topology.generations ~counts:[]))

let test_topology_random () =
  let c = Topology.random ~rng:(Rng.of_int 3) ~n:50 ~min_scale:0.5 ~max_scale:2.0 in
  check Alcotest.int "size" 50 (Topology.size c);
  Array.iter
    (fun s ->
      check Alcotest.bool "score within scale bounds" true (s >= 0.5 && s <= 2.0))
    (Topology.scores c);
  Alcotest.check_raises "bad range" (Invalid_argument "Topology.random: bad scale range")
    (fun () ->
      ignore (Topology.random ~rng:(Rng.of_int 0) ~n:3 ~min_scale:2. ~max_scale:1.))

let prop_apportion_sums =
  QCheck.Test.make ~name:"apportion always hits the exact total" ~count:200
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.int_range 1 20) (float_range 0.01 100.))
        (int_range 0 500))
    (fun (scores, extra) ->
      let total = Array.length scores + extra in
      let out = Enrollment.apportion ~total scores in
      Array.fold_left ( + ) 0 out = total && Array.for_all (fun c -> c >= 1) out)

let suite =
  [
    Alcotest.test_case "profile validation" `Quick test_profile_validation;
    Alcotest.test_case "profile score" `Quick test_profile_score;
    Alcotest.test_case "storage repartitioning" `Quick test_profile_storage_change;
    Alcotest.test_case "apportion exact" `Quick test_apportion_exact_total;
    Alcotest.test_case "apportion floor" `Quick test_apportion_floor;
    Alcotest.test_case "apportion largest remainder" `Quick
      test_apportion_largest_remainder;
    Alcotest.test_case "apportion validation" `Quick test_apportion_validation;
    Alcotest.test_case "ideal shares" `Quick test_ideal_shares;
    Alcotest.test_case "generations topology" `Quick test_topology_generations;
    Alcotest.test_case "random topology" `Quick test_topology_random;
    QCheck_alcotest.to_alcotest prop_apportion_sums;
  ]
