(* Key/value store on the balanced DHT, in two acts.

   Act 1 — data plane: load records into a 16-snode runtime, double the
   cluster while serving (donors stream partitions and their keys to each
   new vnode) and verify every key survives the rebalancing.

   Act 2 — replication: a 3-snode runtime with rfactor=3 and quorum-2
   reads/writes; conflicting writes resolve by last-writer-wins, one
   snode crashes and reads still succeed, then the restarted replica
   re-converges.

   Run with: dune exec examples/kv_store.exe *)

open Dht_core
module Runtime = Dht_snode.Runtime
module Engine = Dht_event_sim.Engine

(* Each stored key's owning vnode, and the key-load sigma (% about the
   ideal keys per vnode), from a snapshot of the cluster. *)
let key_load rt =
  let owners = Hashtbl.create 4096 and counts = ref [] in
  List.iter
    (fun (sn : Runtime.View.snode_view) ->
      List.iter
        (fun (vn : Runtime.View.vnode_view) ->
          counts := float_of_int (List.length vn.data) :: !counts;
          List.iter (fun (k, _) -> Hashtbl.replace owners k vn.vid) vn.data)
        sn.vnodes)
    (Runtime.view rt).snodes;
  let counts = Array.of_list !counts in
  let ideal =
    float_of_int (Hashtbl.length owners) /. float_of_int (Array.length counts)
  in
  (owners, 100. *. Dht_stats.Descriptive.rel_stddev_about counts ~about:ideal)

let () =
  Dht_core.Log.setup_from_env ();
  (* ---- Act 1: the data plane on the message-level snode runtime. ---- *)
  let snodes = 16 in
  let rt =
    Runtime.create ~pmin:32 ~approach:(Runtime.Local { vmin = 16 }) ~snodes
      ~seed:42 ()
  in
  (* Vnode i lives on snode i mod 16; each creation runs to completion. *)
  let grow upto =
    for i = Runtime.vnode_count rt to upto - 1 do
      Runtime.create_vnode rt
        ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
        ();
      Runtime.run rt
    done
  in
  grow 32;

  (* Load 50k user records, each write coordinated by one of the snodes. *)
  let n = 50_000 in
  let record i = Printf.sprintf "{\"id\":%d}" i in
  for i = 0 to n - 1 do
    Runtime.put rt ~via:(i mod snodes) ~key:(Printf.sprintf "user:%d" i)
      ~value:(record i) ()
  done;
  Runtime.run rt;
  let before, sigma = key_load rt in
  Printf.printf "loaded %d keys on %d vnodes\n" (Hashtbl.length before)
    (Runtime.vnode_count rt);
  Printf.printf "quota sigma: %.2f %%, key-load sigma: %.2f %%\n"
    (Runtime.sigma_qv rt) sigma;

  (* The cluster doubles while the store keeps answering. *)
  print_endline "doubling the cluster to 64 vnodes...";
  for upto = 33 to 64 do
    (* A read rides along with every creation. *)
    Runtime.get rt ~via:(upto mod snodes) ~key:"user:1" (fun v ->
        assert (v = Some (record 1)));
    grow upto
  done;
  let after, sigma = key_load rt in
  let moved =
    Hashtbl.fold
      (fun key vid acc ->
        match Hashtbl.find_opt before key with
        | Some v when not (Vnode_id.equal v vid) -> acc + 1
        | _ -> acc)
      after 0
  in
  Printf.printf "keys that changed owner: %d\n" moved;

  (* Full audit: every key at its owner with its value intact, and the
     invariant battery over the whole cluster. *)
  let lost = ref 0 in
  for i = 0 to n - 1 do
    if Runtime.peek rt ~key:(Printf.sprintf "user:%d" i) <> Some (record i)
    then incr lost
  done;
  Printf.printf "keys lost or corrupted: %d\n" !lost;
  Printf.printf "quota sigma: %.2f %%, key-load sigma: %.2f %%\n"
    (Runtime.sigma_qv rt) sigma;
  let findings = Dht_check.Invariants.(to_strings (check_runtime rt)) in
  List.iter print_endline findings;
  if !lost > 0 || findings <> [] then exit 1;

  (* ---- Act 2: replication on the message-level snode runtime. ---- *)
  print_endline "\nreplication: 3 snodes, rfactor=3, R=W=2";
  let faults = Runtime.Fault.create ~seed:42 () in
  let rt =
    Runtime.create ~faults ~rfactor:3 ~read_quorum:2 ~write_quorum:2
      ~snodes:3 ~seed:42 ()
  in
  let acked = ref 0 in
  for i = 0 to 9 do
    Runtime.put rt ~via:(i mod 3)
      ~on_done:(fun () -> incr acked)
      ~key:(Printf.sprintf "k%d" i) ~value:(Printf.sprintf "v%d" i) ()
  done;
  Runtime.run rt;
  Printf.printf "stored 10 keys, %d acknowledged at W=2\n" !acked;

  (* Each coordinator stamps a write as it issues it, and replicas merge
     cells by last-writer-wins on that stamp: snode 2 writes k0 first,
     snode 0 a microsecond later, and the later write wins wherever the
     two land first. *)
  let e = Runtime.engine rt in
  let t = Engine.now e in
  Runtime.put rt ~via:2 ~key:"k0" ~value:"stale" ();
  Engine.at e ~time:(t +. 1e-6) (fun () ->
      Runtime.put rt ~via:0 ~key:"k0" ~value:"v0" ());
  Runtime.run rt;
  assert (Runtime.peek rt ~key:"k0" = Some "v0");
  print_endline "conflicting writes to k0 resolved by last-writer-wins";

  (* Kill one replica: every partition still has 2 of its 3 copies, which
     meets both quorums, so reads (and writes) keep succeeding. *)
  Runtime.crash_snode rt 2;
  let ok = ref 0 in
  for i = 0 to 9 do
    Runtime.get rt ~via:(i mod 2) ~key:(Printf.sprintf "k%d" i) (fun v ->
        if v = Some (Printf.sprintf "v%d" i) then incr ok)
  done;
  Runtime.run ~until:(Engine.now e +. 0.5) rt;
  Printf.printf "snode 2 down: %d/10 reads still correct\n" !ok;

  (* Restart it; reliable delivery and anti-entropy re-converge the
     replica, so it serves quorum reads again. *)
  Runtime.restart_snode rt 2;
  Runtime.run rt;
  Runtime.anti_entropy rt;
  Runtime.run rt;
  let ok2 = ref 0 in
  for i = 0 to 9 do
    Runtime.get rt ~via:2 ~key:(Printf.sprintf "k%d" i) (fun v ->
        if v = Some (Printf.sprintf "v%d" i) then incr ok2)
  done;
  Runtime.run rt;
  Printf.printf "snode 2 restarted: %d/10 reads via it correct\n" !ok2;
  if !acked < 10 || !ok < 10 || !ok2 < 10 then exit 1
