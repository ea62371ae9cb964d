module Rng = Dht_prng.Rng

type t = { nodes : Profile.t array }

let generations ~counts =
  if counts = [] then invalid_arg "Topology.generations: empty cluster";
  let groups =
    List.mapi
      (fun gen (count, scale) ->
        if count <= 0 then
          invalid_arg "Topology.generations: non-positive count";
        let profile =
          Profile.scale
            { Profile.reference with Profile.name = Printf.sprintf "gen%d" gen }
            scale
        in
        Array.make count profile)
      counts
  in
  { nodes = Array.concat groups }

let random ~rng ~n ~min_scale ~max_scale =
  if n <= 0 then invalid_arg "Topology.random: n must be positive";
  if min_scale <= 0. || max_scale < min_scale then
    invalid_arg "Topology.random: bad scale range";
  let node i =
    let scale = min_scale +. (Rng.float rng *. (max_scale -. min_scale)) in
    Profile.scale
      { Profile.reference with Profile.name = Printf.sprintf "node%d" i }
      scale
  in
  { nodes = Array.init n node }

let size t = Array.length t.nodes
let scores t = Array.map Profile.score t.nodes
