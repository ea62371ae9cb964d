type sample = {
  observer : int;
  peer : int;
  srtt : float;
  rttvar : float;
  strikes : int;
  suspect : bool;
  outbox : int;
  backlog : int;
}

(* One observer's view of one peer, folded into a single badness number.
   The RTT estimator carries the gray-failure signal (a slow-but-alive peer
   inflates srtt/rttvar at every observer); strikes, suspicion and queue
   depth amplify it so a peer that is also dropping or backlogging ranks
   above one that is merely slow. *)
let raw s =
  let rtt = Float.max 0. s.srtt +. (4. *. Float.max 0. s.rttvar) in
  let pressure = 1. +. (0.1 *. float_of_int (s.outbox + s.backlog)) in
  let strikes = 1. +. float_of_int (max 0 s.strikes) in
  let suspect = if s.suspect then 4. else 1. in
  rtt *. pressure *. strikes *. suspect

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      let arr = Array.of_list sorted in
      if n mod 2 = 1 then arr.(n / 2)
      else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.

let scores samples =
  let by_peer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_peer s.peer) in
      Hashtbl.replace by_peer s.peer (raw s :: prev))
    samples;
  let means =
    Hashtbl.fold
      (fun peer raws acc ->
        let n = float_of_int (List.length raws) in
        (peer, List.fold_left ( +. ) 0. raws /. n) :: acc)
      by_peer []
  in
  let med = median (List.map snd means) in
  let scale = if med > 0. then med else 1. in
  means
  |> List.map (fun (peer, m) -> (peer, m /. scale))
  |> List.sort (fun (pa, a) (pb, b) ->
         match compare (b : float) a with 0 -> compare pa pb | c -> c)
