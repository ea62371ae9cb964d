open Dht_core
module Rng = Dht_prng.Rng

let vid i = Vnode_id.make ~snode:i ~vnode:0

let local_curves ~pmin ~vmin ~vnodes ~samples rng =
  if vnodes < 1 then invalid_arg "Sims.local_curves: vnodes < 1";
  let dht = Local_dht.create ~pmin ~vmin ~rng ~first:(vid 0) () in
  let curves = Array.map (fun _ -> Array.make vnodes 0.) samples in
  let record i =
    Array.iteri (fun k sample -> curves.(k).(i) <- sample dht) samples
  in
  record 0;
  for i = 1 to vnodes - 1 do
    ignore (Local_dht.add_vnode dht ~id:(vid i));
    record i
  done;
  curves

let local_curve ~pmin ~vmin ~vnodes ~sample rng =
  (local_curves ~pmin ~vmin ~vnodes ~samples:[| sample |] rng).(0)

let global_curve ~pmin ~vnodes ~sample () =
  if vnodes < 1 then invalid_arg "Sims.global_curve: vnodes < 1";
  let dht = Global_dht.create ~pmin ~first:(vid 0) () in
  let curve = Array.make vnodes 0. in
  curve.(0) <- sample dht;
  for i = 1 to vnodes - 1 do
    ignore (Global_dht.add_vnode dht ~id:(vid i));
    curve.(i) <- sample dht
  done;
  curve

let ch_curve ~points_per_node ~nodes rng =
  if nodes < 1 then invalid_arg "Sims.ch_curve: nodes < 1";
  let ring = Dht_ch.Ring.create ~rng () in
  let curve = Array.make nodes 0. in
  for i = 0 to nodes - 1 do
    Dht_ch.Ring.add_node ring ~id:i ~k:points_per_node ();
    curve.(i) <- Dht_ch.Ring.sigma_qn ring
  done;
  curve
