(* The paper's architecture end-to-end: a cluster of snodes with partial
   knowledge only — local vnodes, replicated LPDR copies, stale-able routing
   caches — creating vnodes through the message-level protocol of sections
   3.6/3.7 while serving reads and writes.

   Run with: dune exec examples/distributed_snodes.exe *)

module Runtime = Dht_snode.Runtime
module Network = Dht_event_sim.Network
open Dht_core

let () =
  Dht_core.Log.setup_from_env ();
  let snodes = 16 in
  let rt = Runtime.create ~pmin:32 ~approach:(Runtime.Local { vmin = 16 }) ~snodes ~seed:2004 () in

  (* Load data while the DHT is still one vnode on snode 0. *)
  for i = 0 to 4999 do
    Runtime.put rt ~via:(i mod snodes)
      ~key:(Printf.sprintf "user:%d" i)
      ~value:(string_of_int i) ()
  done;
  Runtime.run rt;
  Printf.printf "loaded %d keys into the bootstrap vnode\n"
    (Runtime.completed_puts rt);

  (* Fire 127 concurrent creation requests: victim groups are found by
     routed lookups, group managers serialize per group, donors stream
     partitions (and the keys inside) straight to the newcomers. *)
  for i = 1 to 127 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
      ()
  done;
  Runtime.run rt;
  Printf.printf "created %d vnodes concurrently; %d routed ops had to retry\n"
    (Runtime.completed_creations rt)
    (Runtime.retries rt);
  Printf.printf "distributed sigma(Qv): %.2f %%\n" (Runtime.sigma_qv rt);
  Printf.printf "fabric traffic: %d messages, %.1f MB\n"
    (Network.messages (Runtime.network rt))
    (float_of_int (Network.bytes_sent (Runtime.network rt)) /. 1e6);

  (* Every key is still reachable from any snode, through caches that were
     never globally synchronized. *)
  let wrong = ref 0 in
  for i = 0 to 4999 do
    Runtime.get rt ~via:((i * 7) mod snodes)
      ~key:(Printf.sprintf "user:%d" i)
      (fun v -> if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  Printf.printf "re-read %d keys from random snodes: %d wrong\n"
    (Runtime.completed_gets rt) !wrong;

  (* A node departs: its partitions (and keys) drain to the least-loaded
     survivors of its group through the same prepare/commit machinery. *)
  let departed = ref None in
  Runtime.remove_vnode rt ~id:(Vnode_id.make ~snode:3 ~vnode:1) (fun ok ->
      departed := Some ok);
  Runtime.run rt;
  (match !departed with
  | Some true -> print_endline "vnode 3.1 departed; partitions re-absorbed"
  | Some false ->
      print_endline "vnode 3.1's departure was refused (L2 floor) - kept"
  | None -> prerr_endline "departure did not resolve");

  (* Global verification: the invariant battery over a snapshot of every
     snode's slice. *)
  match Dht_check.Invariants.(to_strings (check_runtime rt)) with
  | [] ->
      print_endline
        "audit: coverage, LPDR-copy convergence, invariants and data \
         placement all hold"
  | es ->
      List.iter print_endline es;
      exit 1
