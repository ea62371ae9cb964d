open Dht_core
module Runtime = Dht_snode.Runtime
module Fault = Dht_event_sim.Fault

(* The standard explorable workload: grow a cluster, write a keyset, grow
   again (so balancing events migrate live data), optionally remove
   vnodes, then overwrite and read every key. Satisfies the checkers'
   preconditions: values are unique per key and each session (via snode)
   issues its operations sequentially.

   [protect = true] (the default) arms the reliable delivery layer with an
   empty fault plan — no drops, duplicates or jitter of its own, but
   retransmission and crash recovery work, so injected crash/delay/flush
   perturbations must be tolerated: any verifier failure is a real bug.
   [protect = false] is mutation mode: the runtime believes the network is
   reliable, so a sunk message models silent loss the protocol is not
   armed against — the explorer must detect the planted damage (a
   self-test that the whole detection pipeline works). *)
let kv ?(name = "kv") ?(protect = true) ?(snodes = 5) ?(vnodes = 3) ?(grow = 2)
    ?(removes = 1) ?(keys = 12) ?(rfactor = 3) ?(read_quorum = 2)
    ?(write_quorum = 2) ?(linger = 0.) () =
  let hist = ref (History.create ()) in
  let build ~seed =
    let faults = if protect then Some (Fault.create ~seed ()) else None in
    let rt =
      Runtime.create ?faults ~pmin:8 ~approach:(Runtime.Local { vmin = 2 })
        ~rfactor ~read_quorum ~write_quorum ~linger ~snodes ~seed ()
    in
    hist := History.create ();
    History.attach !hist rt;
    rt
  in
  let key k = Printf.sprintf "key-%d" k in
  let drive rt =
    let next = ref 1 in
    let add n =
      for _ = 1 to n do
        let id = Vnode_id.make ~snode:(!next mod snodes) ~vnode:(!next / snodes) in
        incr next;
        Runtime.create_vnode rt ~id ()
      done;
      Runtime.run rt
    in
    (* First growth wave, then the initial writes. *)
    add vnodes;
    for k = 0 to keys - 1 do
      Runtime.put rt ~via:(k mod snodes) ~key:(key k)
        ~value:(Printf.sprintf "a-%d" k) ()
    done;
    Runtime.run rt;
    (* Second growth wave migrates live data; removals drain vnodes. *)
    add grow;
    for r = 1 to min removes (!next - 2) do
      Runtime.remove_vnode rt
        ~id:(Vnode_id.make ~snode:(r mod snodes) ~vnode:(r / snodes))
        (fun _ -> ())
    done;
    Runtime.run rt;
    (* Overwrites against the reshaped cluster, each session reading its
       key back only after its own write acked (sequential sessions, the
       read-your-writes precondition). *)
    for k = 0 to keys - 1 do
      let via = (k + 1) mod snodes in
      Runtime.put rt ~via ~key:(key k) ~value:(Printf.sprintf "b-%d" k)
        ~on_done:(fun () -> Runtime.get rt ~via ~key:(key k) (fun _ -> ()))
        ()
    done;
    Runtime.run rt
  in
  let verify rt =
    let entries = History.entries !hist in
    Invariants.to_strings (Invariants.check_runtime rt)
    @ Linear.full ~peek:(fun key -> Runtime.peek rt ~key) entries
  in
  { Explorer.name; build; drive; verify }

(* Merkle anti-entropy reconciliation under perturbation: the cluster
   runs with [mt_threshold = 0] (every non-empty span descends the tree;
   an empty span's root frame is answered as a leaf) and a tiny leaf cap
   so even the small keyset produces real multi-level descents.
   Divergence is manufactured with the [plant] oracle on keys disjoint
   from the workload (and stamped near time zero), so the
   linearizability and durability checkers never see them; two
   reconciliation rounds then run with [Mt_*] frames exposed to the
   explorer's defer/sink/crash perturbations. The verifier demands the invariant battery, hash-tree
   consistency and the full linearizability suite stay clean — planted
   cells may still be mid-reconciliation when a perturbation starved a
   round, but nothing may ever be corrupted or lost. *)
let mt_ae ?(name = "mt-ae") ?(protect = true) ?(snodes = 4) ?(keys = 10)
    ?(rfactor = 3) ?(read_quorum = 2) ?(write_quorum = 2) ?(linger = 0.) () =
  let divergent = 6 in
  let hist = ref (History.create ()) in
  let build ~seed =
    let faults = if protect then Some (Fault.create ~seed ()) else None in
    let rt =
      Runtime.create ?faults ~pmin:8 ~approach:(Runtime.Local { vmin = 2 })
        ~rfactor ~read_quorum ~write_quorum ~linger ~mt_threshold:0 ~mt_leaf:2
        ~snodes ~seed ()
    in
    hist := History.create ();
    History.attach !hist rt;
    rt
  in
  let key k = Printf.sprintf "key-%d" k in
  let drive rt =
    for n = 1 to 2 do
      Runtime.create_vnode rt
        ~id:(Vnode_id.make ~snode:(n mod snodes) ~vnode:(n / snodes))
        ()
    done;
    Runtime.run rt;
    for k = 0 to keys - 1 do
      Runtime.put rt ~via:(k mod snodes) ~key:(key k)
        ~value:(Printf.sprintf "a-%d" k) ()
    done;
    Runtime.run rt;
    (* Planted divergence: one fresh cell on one snode, a stale sibling
       of the same key on another — both sides of the symmetric
       difference are exercised. *)
    for d = 0 to divergent - 1 do
      let dkey = Printf.sprintf "div-%d" d in
      Runtime.plant rt ~snode:(d mod snodes) ~key:dkey
        ~value:(Printf.sprintf "fresh-%d" d)
        ~ts:(1e-6 *. float_of_int (d + 2)) ();
      Runtime.plant rt
        ~snode:((d + 1) mod snodes)
        ~key:dkey
        ~value:(Printf.sprintf "stale-%d" d)
        ~ts:1e-7 ()
    done;
    Runtime.anti_entropy rt;
    Runtime.run rt;
    Runtime.anti_entropy rt;
    Runtime.run rt;
    (* Overwrites and session reads against the reconciled cluster. *)
    for k = 0 to keys - 1 do
      let via = (k + 1) mod snodes in
      Runtime.put rt ~via ~key:(key k) ~value:(Printf.sprintf "b-%d" k)
        ~on_done:(fun () -> Runtime.get rt ~via ~key:(key k) (fun _ -> ()))
        ()
    done;
    Runtime.run rt
  in
  let verify rt =
    let entries = History.entries !hist in
    (* Reconciliation oracle: after the rounds (however perturbed), the
       fresher planted cell must have reached its partition owner's
       authoritative copy — under protection the reliable layer must
       carry every tree frame through; a silently sunk frame loses the
       planted write and is exactly what mutation mode must detect. *)
    let unreconciled =
      List.filter_map
        (fun d ->
          let dkey = Printf.sprintf "div-%d" d in
          let expect = Printf.sprintf "fresh-%d" d in
          match Runtime.peek rt ~key:dkey with
          | Some v when v = expect -> None
          | got ->
              Some
                (Printf.sprintf
                   "MERKLE: planted cell %S not reconciled to owner: %s" dkey
                   (match got with None -> "missing" | Some v -> v)))
        (List.init divergent Fun.id)
    in
    Invariants.to_strings (Invariants.check_runtime rt)
    @ Invariants.to_strings (Invariants.check_merkle rt)
    @ unreconciled
    @ Linear.full ~peek:(fun key -> Runtime.peek rt ~key) entries
  in
  { Explorer.name; build; drive; verify }

let by_name ?linger name =
  match name with
  | "kv" -> Some (kv ?linger ())
  | "kv-mutate" -> Some (kv ~name:"kv-mutate" ~protect:false ?linger ())
  | "mt-ae" -> Some (mt_ae ?linger ())
  | "mt-ae-mutate" -> Some (mt_ae ~name:"mt-ae-mutate" ~protect:false ?linger ())
  | _ -> None
