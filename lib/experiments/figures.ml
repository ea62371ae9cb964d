open Dht_core

let sigma_sample dht = Local_dht.sigma_qv dht

let local_sigma_curve ~runs ~seed ~pmin ~vmin ~vnodes =
  Runs.mean_curve ~runs ~seed (fun rng ->
      Sims.local_curve ~pmin ~vmin ~vnodes ~sample:sigma_sample rng)

let fig4 ?(runs = 100) ?(vnodes = 1024) ?(pairs = [ 8; 16; 32; 64; 128 ])
    ~seed () =
  List.map
    (fun p ->
      let ys = local_sigma_curve ~runs ~seed ~pmin:p ~vmin:p ~vnodes in
      Curve.of_ys ~label:(Printf.sprintf "(Pmin,Vmin)=(%d,%d)" p p) ys)
    pairs

let fig5 ?(runs = 100) ?(vnodes = 1024) ?(vmins = [ 8; 16; 32; 64; 128 ])
    ?(alpha = 0.5) ~seed () =
  if alpha < 0. || alpha > 1. then invalid_arg "Figures.fig5: alpha outside [0, 1]";
  let finals =
    List.map
      (fun v ->
        let final =
          Runs.mean_value ~runs ~seed (fun rng ->
              let ys =
                Sims.local_curve ~pmin:v ~vmin:v ~vnodes ~sample:sigma_sample rng
              in
              ys.(vnodes - 1))
        in
        (v, final))
      vmins
  in
  let max_vmin = float_of_int (List.fold_left max 1 vmins) in
  let max_sigma = List.fold_left (fun acc (_, s) -> Float.max acc s) 0. finals in
  List.map
    (fun (v, s) ->
      let theta =
        (alpha *. (float_of_int v /. max_vmin))
        +. ((1. -. alpha) *. (s /. max_sigma))
      in
      (v, theta))
    finals

let argmin_theta thetas =
  match thetas with
  | [] -> invalid_arg "Figures.argmin_theta: empty"
  | (v0, t0) :: rest ->
      fst
        (List.fold_left
           (fun (bv, bt) (v, t) -> if t < bt then (v, t) else (bv, bt))
           (v0, t0) rest)

let fig6 ?(runs = 100) ?(vnodes = 1024) ?(pmin = 32)
    ?(vmins = [ 8; 16; 32; 64; 128; 256; 512 ]) ~seed () =
  List.map
    (fun vmin ->
      let ys = local_sigma_curve ~runs ~seed ~pmin ~vmin ~vnodes in
      Curve.of_ys ~label:(Printf.sprintf "Vmin=%d" vmin) ys)
    vmins

type group_dynamics = { greal : Curve.t; gideal : Curve.t; sigma_qg : Curve.t }

let fig7_fig8 ?(runs = 100) ?(vnodes = 1024) ?(pmin = 32) ?(vmin = 32) ~seed ()
    =
  let samples =
    [|
      (fun dht -> float_of_int (Local_dht.group_count dht));
      (fun dht -> Local_dht.sigma_qg dht);
    |]
  in
  let curves =
    Runs.mean_curves ~runs ~seed ~k:2 (fun rng ->
        Sims.local_curves ~pmin ~vmin ~vnodes ~samples rng)
  in
  let gideal =
    Array.init vnodes (fun i ->
        float_of_int (Metrics.gideal ~vnodes:(i + 1) ~vmax:(2 * vmin)))
  in
  {
    greal = Curve.of_ys ~label:"Greal" curves.(0);
    gideal = Curve.of_ys ~label:"Gideal" gideal;
    sigma_qg = Curve.of_ys ~label:"sigma(Qg)" curves.(1);
  }

let fig9 ?(runs = 100) ?(nodes = 1024) ?(pmin = 32)
    ?(vmins = [ 32; 64; 128; 256; 512 ]) ?(ch_points = [ 32; 64 ]) ~seed () =
  let ch =
    List.map
      (fun k ->
        let ys =
          Runs.mean_curve ~runs ~seed (fun rng ->
              Sims.ch_curve ~points_per_node:k ~nodes rng)
        in
        Curve.of_ys ~label:(Printf.sprintf "CH, %d partitions/node" k) ys)
      ch_points
  in
  let local =
    List.map
      (fun vmin ->
        let ys = local_sigma_curve ~runs ~seed ~pmin ~vmin ~vnodes:nodes in
        Curve.of_ys ~label:(Printf.sprintf "local approach, Vmin=%d" vmin) ys)
      vmins
  in
  ch @ local

let zone1 ?(runs = 100) ?(pmin_vmin = 32) ~seed () =
  let vmax = 2 * pmin_vmin in
  let local =
    Curve.of_ys ~label:"local (zone 1)"
      (local_sigma_curve ~runs ~seed ~pmin:pmin_vmin ~vmin:pmin_vmin
         ~vnodes:vmax)
  in
  let global =
    Curve.of_ys ~label:"global"
      (Sims.global_curve ~pmin:pmin_vmin ~vnodes:vmax
         ~sample:Global_dht.sigma_qv ())
  in
  (local, global)

let plateau_ratios curves =
  let rec go prev = function
    | [] -> []
    | (c : Curve.t) :: rest ->
        let final = Curve.last c in
        let ratio = match prev with None -> 1. | Some p -> final /. p in
        (c.Curve.label, final, ratio) :: go (Some final) rest
  in
  go None curves

type cost_row = {
  vmin : int;
  mean_group_size : float;
  group_count : float;
  lpdr_bytes : float;
  sync_snodes : float;
  final_sigma : float;
}

let cost ?(runs = 20) ?(vnodes = 1024) ~seed () =
  let module Rng = Dht_prng.Rng in
  List.map
    (fun vmin ->
      let master = Rng.of_int seed in
      let acc_group = Dht_stats.Welford.create () in
      let acc_count = Dht_stats.Welford.create () in
      let acc_sigma = Dht_stats.Welford.create () in
      for _ = 1 to runs do
        let rng = Rng.split master in
        let vid i = Vnode_id.make ~snode:i ~vnode:0 in
        let dht = Local_dht.create ~pmin:32 ~vmin ~rng ~first:(vid 0) () in
        for i = 1 to vnodes - 1 do
          ignore (Local_dht.add_vnode dht ~id:(vid i))
        done;
        let groups = Local_dht.groups dht in
        let g = List.length groups in
        Dht_stats.Welford.add acc_count (float_of_int g);
        List.iter
          (fun b ->
            Dht_stats.Welford.add acc_group
              (float_of_int (Balancer.vnode_count b)))
          groups;
        Dht_stats.Welford.add acc_sigma (Local_dht.sigma_qv dht)
      done;
      let mean_group_size = Dht_stats.Welford.mean acc_group in
      {
        vmin;
        mean_group_size;
        group_count = Dht_stats.Welford.mean acc_count;
        (* 16-byte header + one 16-byte entry (vnode id, count) per member:
           the LPDR entry size the runtime's wire charges. *)
        lpdr_bytes = 16. +. (16. *. mean_group_size);
        (* One vnode per snode: every group member's snode synchronizes. *)
        sync_snodes = mean_group_size;
        final_sigma = Dht_stats.Welford.mean acc_sigma;
      })
    [ 8; 16; 32; 64; 128; 256; 512 ]

let stability ?(runs = 10) ?(vnodes = 8192) ?(pmin = 32) ?(vmin = 32) ~seed ()
    =
  let ys = local_sigma_curve ~runs ~seed ~pmin ~vmin ~vnodes in
  let curve = Curve.of_ys ~label:(Printf.sprintf "Vmin=%d" vmin) ys in
  let half = vnodes / 2 in
  let xs = Array.init (vnodes - half) (fun i -> float_of_int (half + i + 1)) in
  let tail = Array.sub ys half (vnodes - half) in
  let fit = Dht_stats.Regression.fit ~xs ~ys:tail in
  (curve, fit.Dht_stats.Regression.slope *. 1000.)
