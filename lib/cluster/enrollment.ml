let ideal_shares scores =
  let total = Array.fold_left ( +. ) 0. scores in
  Array.map (fun s -> s /. total) scores

let apportion ?(min_vnodes = 1) ~total scores =
  let n = Array.length scores in
  if n = 0 then invalid_arg "Enrollment.apportion: no nodes";
  Array.iter
    (fun s ->
      if s <= 0. then invalid_arg "Enrollment.apportion: non-positive score")
    scores;
  if total < min_vnodes * n then
    invalid_arg "Enrollment.apportion: total below the per-node floor";
  let shares = ideal_shares scores in
  (* Largest-remainder apportionment of the whole total, so well-separated
     scores yield exactly proportional counts... *)
  let exact = Array.map (fun s -> s *. float_of_int total) shares in
  let base = Array.map (fun e -> int_of_float (floor e)) exact in
  let assigned = Array.fold_left ( + ) 0 base in
  let leftovers = total - assigned in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      Stdlib.compare
        (exact.(b) -. floor exact.(b))
        (exact.(a) -. floor exact.(a)))
    order;
  for r = 0 to leftovers - 1 do
    let i = order.(r) in
    base.(i) <- base.(i) + 1
  done;
  (* ... then enforce the per-node floor by taking from the largest holder
     (total >= min_vnodes * n guarantees termination). *)
  let rec enforce () =
    match Array.to_seqi base |> Seq.find (fun (_, c) -> c < min_vnodes) with
    | None -> ()
    | Some (poor, _) ->
        let rich = ref 0 in
        Array.iteri (fun i c -> if c > base.(!rich) then rich := i) base;
        assert (base.(!rich) > min_vnodes);
        base.(!rich) <- base.(!rich) - 1;
        base.(poor) <- base.(poor) + 1;
        enforce ()
  in
  enforce ();
  base

let vnodes_of_profiles ~total profiles =
  apportion ~total (Array.map Profile.score profiles)
