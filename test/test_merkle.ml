(* Merkle-tree anti-entropy and range reads: the hash-tree library's
   structural laws (incremental maintenance equals rebuild, subrange
   frames equal flat scans, untouched subtrees survive splits, snapshots
   are isolated from later updates, range queries equal a filtered
   model), the runtime's live trees against rebuilds, exact
   symmetric-difference reconciliation at the runtime level, pinned
   anti-entropy traffic, range-read session guarantees, the hint-drain
   regression under the tree protocol, and schedule exploration over the
   [Mt_*] frames — including a committed shrunk repro of a
   reconciliation race. *)

open Dht_hashspace
module Merkle = Dht_merkle.Merkle
module Runtime = Dht_snode.Runtime
module Network = Dht_event_sim.Network
module Engine = Dht_event_sim.Engine
module Hash = Dht_hashes.Hash
module Rng = Dht_prng.Rng
module Explorer = Dht_check.Explorer
module Scenarios = Dht_check.Scenarios
module Schedule = Dht_check.Schedule

let check = Alcotest.check
let space = Space.default

let fail_strings what = function
  | [] -> ()
  | msgs -> QCheck.Test.fail_reportf "%s:@.%s" what (String.concat "\n" msgs)

(* --- (b) incremental maintenance equals rebuild --- *)

let prop_incremental_rehash =
  QCheck.Test.make
    ~name:"merkle: tree maintained across random puts equals rebuilt"
    ~count:200 QCheck.small_int (fun salt ->
      let rng = Rng.of_int ((salt * 131) + 17) in
      let cap = 1 + Rng.int rng 4 in
      let t = Merkle.create ~leaf_cap:cap ~space ~span:Span.root () in
      let model = Hashtbl.create 64 in
      let nops = 30 + Rng.int rng 120 in
      for _ = 1 to nops do
        let key = Printf.sprintf "key-%d" (Rng.int rng 40) in
        let point = Hash.string space key in
        if Rng.int rng 4 = 0 then begin
          let hit = Merkle.remove t ~key ~point in
          if hit <> Hashtbl.mem model key then
            QCheck.Test.fail_reportf "remove %S hit=%b, model disagrees" key
              hit;
          Hashtbl.remove model key
        end
        else begin
          let digest = Rng.int rng 1_000_000 in
          Hashtbl.replace model key (point, digest);
          Merkle.insert t ~key ~point ~digest ()
        end
      done;
      fail_strings "incremental tree inconsistent" (Merkle.check t);
      let cells =
        Hashtbl.fold (fun k (p, d) acc -> (k, p, d, ()) :: acc) model []
      in
      let rebuilt = Merkle.build ~leaf_cap:cap ~space ~span:Span.root cells in
      fail_strings "rebuilt tree inconsistent" (Merkle.check rebuilt);
      if not (Merkle.equal t rebuilt) then
        QCheck.Test.fail_reportf
          "maintained tree differs from rebuild (%d keys, cap %d)"
          (Hashtbl.length model) cap;
      Merkle.count t = Hashtbl.length model
      && Merkle.digest t = Merkle.digest rebuilt)

(* --- (c) subrange frames: exactness and split isolation --- *)

let brute_frame cells q =
  List.fold_left
    (fun (c, h) (_, point, digest, ()) ->
      if Span.contains space q point then (c + 1, h lxor digest) else (c, h))
    (0, 0) cells

let prop_subrange_frames =
  QCheck.Test.make
    ~name:"merkle: subrange frames equal flat scans; splits leave disjoint \
           subtrees untouched"
    ~count:200 QCheck.small_int (fun salt ->
      let rng = Rng.of_int ((salt * 977) + 3) in
      let cap = 1 + Rng.int rng 3 in
      let n = 10 + Rng.int rng 60 in
      (* Points chosen directly (the tree never re-derives them), so the
         generator controls the spatial layout exactly. *)
      let cells =
        List.init n (fun i ->
            let point = Rng.int rng (Space.size space) in
            (Printf.sprintf "c-%d-%d" i point, point, Rng.int rng 1_000_000, ()))
      in
      let t = Merkle.build ~leaf_cap:cap ~space ~span:Span.root cells in
      (* Any dyadic query frame equals the flat fold over the members. *)
      for level = 0 to 8 do
        let index = Rng.int rng (1 lsl level) in
        let q = Span.make space ~level ~index in
        let f = Merkle.frame_at t q in
        let c, h = brute_frame cells q in
        if f.Merkle.f_count <> c || f.Merkle.f_hash <> h then
          QCheck.Test.fail_reportf
            "frame at %a: (%d, %x) but scan says (%d, %x)" Span.pp q
            f.Merkle.f_count f.Merkle.f_hash c h
      done;
      (* An interior frame is always its children's XOR / sum. *)
      let q = Span.make space ~level:2 ~index:(Rng.int rng 4) in
      let f = Merkle.frame_at t q in
      let a, b = Merkle.children t q in
      if
        f.Merkle.f_hash <> a.Merkle.f_hash lxor b.Merkle.f_hash
        || f.Merkle.f_count <> a.Merkle.f_count + b.Merkle.f_count
      then QCheck.Test.fail_reportf "children do not recompose %a" Span.pp q;
      (* Mutating inside one level-3 range (forcing leaf splits and
         interior collapses) must leave every disjoint level-3 frame
         bit-identical. *)
      let level = 3 in
      let spans =
        List.init (1 lsl level) (fun index -> Span.make space ~level ~index)
      in
      let target = List.nth spans (Rng.int rng (1 lsl level)) in
      let before =
        List.map (fun s -> (s, Merkle.frame_at t s)) spans
        |> List.filter (fun (s, _) -> not (Span.equal s target))
      in
      let lo = Span.start space target in
      let width = Span.size space target in
      for i = 0 to 2 * cap do
        let point = lo + Rng.int rng width in
        Merkle.insert t
          ~key:(Printf.sprintf "mut-%d" i)
          ~point ~digest:(Rng.int rng 1_000_000) ()
      done;
      for i = 0 to cap do
        let key = Printf.sprintf "mut-%d" i in
        ignore (Merkle.remove t ~key ~point:(lo + Rng.int rng width))
      done;
      fail_strings "tree inconsistent after mutation" (Merkle.check t);
      List.for_all
        (fun (s, f0) ->
          let f1 = Merkle.frame_at t s in
          f1.Merkle.f_count = f0.Merkle.f_count
          && f1.Merkle.f_hash = f0.Merkle.f_hash)
        before)

(* --- (d) persistence: O(1) snapshots and point-interval range queries --- *)

(* Random insert/remove traffic over a small key set with directly chosen
   points, mirrored into a model table: key -> (point, digest). *)
let random_ops rng t model n =
  for _ = 1 to n do
    let key = Printf.sprintf "key-%d" (Rng.int rng 60) in
    let point = Hash.string space key in
    if Rng.int rng 4 = 0 then begin
      ignore (Merkle.remove t ~key ~point);
      Hashtbl.remove model key
    end
    else begin
      let digest = Rng.int rng 1_000_000 in
      Hashtbl.replace model key (point, digest);
      Merkle.insert t ~key ~point ~digest digest
    end
  done

let model_cells model =
  Hashtbl.fold (fun k (p, d) acc -> (k, p, d, d) :: acc) model []

let prop_snapshot_isolation =
  QCheck.Test.make
    ~name:"merkle: a snapshot equals a rebuild at snapshot time after any \
           later updates"
    ~count:200 QCheck.small_int (fun salt ->
      let rng = Rng.of_int ((salt * 613) + 29) in
      let cap = 1 + Rng.int rng 4 in
      let t = Merkle.create ~leaf_cap:cap ~space ~span:Span.root () in
      let model = Hashtbl.create 64 in
      random_ops rng t model (Rng.int rng 80);
      let snap = Merkle.snapshot t in
      let at_snap = model_cells model in
      random_ops rng t model (1 + Rng.int rng 80);
      let rebuild cells =
        Merkle.build ~leaf_cap:cap ~space ~span:Span.root cells
      in
      fail_strings "snapshot inconsistent" (Merkle.check snap);
      fail_strings "live tree inconsistent" (Merkle.check t);
      if not (Merkle.equal snap (rebuild at_snap)) then
        QCheck.Test.fail_reportf "snapshot moved with later updates (cap %d)"
          cap;
      if not (Merkle.equal t (rebuild (model_cells model))) then
        QCheck.Test.fail_reportf "live tree differs from rebuild (cap %d)" cap;
      (* Entries carry payloads too: the snapshot's must be the old ones. *)
      let payloads tree =
        List.map (fun (k, _, p) -> (k, p)) (Merkle.entries_at tree Span.root)
      in
      payloads snap
      = List.sort compare (List.map (fun (k, _, d, _) -> (k, d)) at_snap))

(* Updates mutate the nodes a handle owns in place and copy only what it
   shares with a snapshot. Random interleavings of inserts, removes and
   snapshots, on the live tree and on every snapshot taken from it (and
   from those), must keep each handle equal to a rebuild over its own
   cell set after every step: frames, entries and structure alike. *)
let prop_snapshot_interleavings =
  QCheck.Test.make
    ~name:"merkle: in-place updates never leak across snapshot handles"
    ~count:150 QCheck.small_int (fun salt ->
      let rng = Rng.of_int ((salt * 389) + 71) in
      let cap = 1 + Rng.int rng 4 in
      let rebuild model =
        Merkle.build ~leaf_cap:cap ~space ~span:Span.root (model_cells model)
      in
      let probes =
        Span.root
        :: List.init 6 (fun i ->
               let level = 1 + (i mod 3) in
               Span.make space ~level ~index:(Rng.int rng (1 lsl level)))
      in
      let agrees (t, model) =
        let r = rebuild model in
        Merkle.check t = []
        && Merkle.equal t r
        && List.for_all
             (fun q ->
               Merkle.frame_at t q = Merkle.frame_at r q
               && Merkle.entries_at t q = Merkle.entries_at r q)
             probes
      in
      (* handles.(0) is the live tree; each handle has its own model. *)
      let handles =
        ref [| (Merkle.create ~leaf_cap:cap ~space ~span:Span.root (),
                Hashtbl.create 64) |]
      in
      for step = 1 to 40 + Rng.int rng 60 do
        let hs = !handles in
        let i = Rng.int rng (Array.length hs) in
        let t, model = hs.(i) in
        (match Rng.int rng 8 with
        | 0 when Array.length hs < 6 ->
            handles :=
              Array.append hs [| (Merkle.snapshot t, Hashtbl.copy model) |]
        | 0 | 1 | 2 -> random_ops rng t model 1
        | _ ->
            (* Bias toward inserts so buckets fill, split and collapse. *)
            let key = Printf.sprintf "key-%d" (Rng.int rng 60) in
            let point = Hash.string space key in
            let digest = Rng.int rng 1_000_000 in
            Hashtbl.replace model key (point, digest);
            Merkle.insert t ~key ~point ~digest digest);
        Array.iteri
          (fun j h ->
            if not (agrees h) then
              QCheck.Test.fail_reportf
                "step %d: handle %d differs from a rebuild over its cells \
                 (cap %d)" step j cap)
          !handles
      done;
      true)

let prop_range_query =
  QCheck.Test.make
    ~name:"merkle: range lo hi equals the model filtered to [lo, hi), by key"
    ~count:200 QCheck.small_int (fun salt ->
      let rng = Rng.of_int ((salt * 389) + 71) in
      let cap = 1 + Rng.int rng 4 in
      let t = Merkle.create ~leaf_cap:cap ~space ~span:Span.root () in
      let model = Hashtbl.create 64 in
      random_ops rng t model (20 + Rng.int rng 100);
      let points = Hashtbl.fold (fun _ (p, _) acc -> p :: acc) model [] in
      let pick () =
        (* Endpoints on, next to and between held points, plus the
           space's edges, so straddling buckets get exercised. *)
        match (Rng.int rng 4, points) with
        | 0, _ | _, [] -> Rng.int rng (Space.size space + 1)
        | 1, _ -> if Rng.int rng 2 = 0 then 0 else Space.size space
        | _, _ ->
            List.nth points (Rng.int rng (List.length points))
            + Rng.int rng 3 - 1
      in
      List.for_all
        (fun _ ->
          let lo = pick () and hi = pick () in
          let expected =
            Hashtbl.fold
              (fun k (p, d) acc ->
                if p >= lo && p < hi then (k, d) :: acc else acc)
              model []
            |> List.sort compare
          in
          let got = Merkle.range t ~lo ~hi in
          if got <> expected then
            QCheck.Test.fail_reportf "range [%d, %d): %d keys, model has %d" lo
              hi (List.length got) (List.length expected);
          true)
        (List.init 8 Fun.id))

let prop_live_tree_sweep =
  QCheck.Test.make
    ~name:"merkle: live tree equals a rebuild at quiescence across 100 \
           put/crash/AE/range schedules"
    ~count:100 QCheck.small_int (fun salt ->
      let rng = Rng.of_int ((salt * 4099) + 13) in
      let snodes = 4 + Rng.int rng 2 in
      let rt =
        Runtime.create
          ~faults:(Runtime.Fault.create ~seed:salt ())
          ~pmin:8
          ~approach:(Runtime.Local { vmin = 2 })
          ~rfactor:3 ~read_quorum:2 ~write_quorum:2
          ~mt_threshold:(if Rng.int rng 2 = 0 then 0 else 128)
          ~mt_leaf:(1 + Rng.int rng 4)
          ~snodes ~seed:salt ()
      in
      let open Dht_core in
      for n = 1 to 1 + Rng.int rng 3 do
        Runtime.create_vnode rt
          ~id:(Vnode_id.make ~snode:(n mod snodes) ~vnode:(n / snodes))
          ()
      done;
      Runtime.run rt;
      let puts n =
        for _ = 1 to n do
          let k = Rng.int rng 50 in
          Runtime.put rt ~via:(Rng.int rng snodes)
            ~key:(Printf.sprintf "key-%d" k)
            ~value:(Printf.sprintf "v-%d" (Rng.int rng 1000))
            ()
        done
      in
      let range () =
        let lo = Rng.int rng (Space.size space / 2) in
        let hi = lo + Rng.int rng (Space.size space - lo) in
        Runtime.range_get rt ~via:(Rng.int rng snodes) ~lo ~hi ignore
      in
      puts 40;
      Runtime.run rt;
      let down = ref None in
      for _ = 1 to 3 + Rng.int rng 4 do
        (match Rng.int rng 5 with
        | 0 -> puts (1 + Rng.int rng 20)
        | 1 -> (
            match !down with
            | None ->
                let sid = Rng.int rng snodes in
                Runtime.crash_snode rt sid;
                down := Some sid
            | Some sid ->
                Runtime.restart_snode rt sid;
                down := None)
        | 2 -> Runtime.anti_entropy rt
        | 3 -> range ()
        | _ ->
            puts (1 + Rng.int rng 8);
            range ());
        (* Reliable delivery keeps probing a crashed peer, so the queue
           drains only once everyone is up again. *)
        (match !down with
        | None -> Runtime.run rt
        | Some _ ->
            Runtime.run ~until:(Engine.now (Runtime.engine rt) +. 0.5) rt);
        fail_strings "tree audit mid-schedule" (Runtime.merkle_audit rt)
      done;
      (match !down with Some sid -> Runtime.restart_snode rt sid | None -> ());
      Runtime.run rt;
      (* A full-space range reads on every replica (building any dropped
         tree), then a few writes — fewer than the trees hold — must be
         maintained in place rather than forcing a rebuild. *)
      Runtime.range_get rt ~via:0 ~lo:0 ~hi:(Space.size space) ignore;
      Runtime.run rt;
      puts (1 + Rng.int rng 5);
      Runtime.anti_entropy rt;
      Runtime.run rt;
      fail_strings "tree audit at quiescence" (Runtime.merkle_audit rt);
      true)

(* --- (a) runtime reconciliation: exact symmetric difference --- *)

let mt_tag_stats rt =
  List.fold_left
    (fun (msgs, bytes) (tag, m, b) ->
      if String.length tag >= 3 && String.sub tag 0 3 = "mt:" then
        (msgs + m, bytes + b)
      else (msgs, bytes))
    (0, 0)
    (Network.per_tag (Runtime.network rt))

let prop_reconciliation =
  QCheck.Test.make
    ~name:"merkle: reconciliation converges, transfers exactly the \
           symmetric difference"
    ~count:200 QCheck.small_int (fun salt ->
      let rng = Rng.of_int ((salt * 7919) + 5) in
      let rt =
        Runtime.create ~pmin:8
          ~approach:(Runtime.Local { vmin = 2 })
          ~rfactor:2 ~read_quorum:1 ~write_quorum:2 ~mt_threshold:0
          ~mt_leaf:(1 + Rng.int rng 4)
          ~snodes:2 ~seed:salt ()
      in
      let base = 20 + Rng.int rng 40 in
      for k = 0 to base - 1 do
        Runtime.put rt ~via:(k mod 2)
          ~key:(Printf.sprintf "base-%d" k)
          ~value:(Printf.sprintf "v-%d" k)
          ()
      done;
      Runtime.run rt;
      (* Random divergence: keys missing on either side, plus keys stale
         on one side — every class of symmetric-difference element. *)
      let only0 = Rng.int rng 6
      and only1 = Rng.int rng 6
      and stale = Rng.int rng 6 in
      for i = 0 to only0 - 1 do
        Runtime.plant rt ~snode:0
          ~key:(Printf.sprintf "m0-%d" i)
          ~value:(Printf.sprintf "m0v-%d" i) ~ts:3e-6 ()
      done;
      for i = 0 to only1 - 1 do
        Runtime.plant rt ~snode:1
          ~key:(Printf.sprintf "m1-%d" i)
          ~value:(Printf.sprintf "m1v-%d" i) ~ts:3e-6 ()
      done;
      for i = 0 to stale - 1 do
        let key = Printf.sprintf "st-%d" i in
        Runtime.plant rt ~snode:0 ~key ~value:(Printf.sprintf "new-%d" i)
          ~ts:2e-6 ();
        Runtime.plant rt ~snode:1 ~key ~value:(Printf.sprintf "old-%d" i)
          ~ts:1e-6 ()
      done;
      let expected = only0 + only1 + (2 * stale) in
      let s0 = Runtime.ae_stats rt in
      let _, bytes0 = mt_tag_stats rt in
      Runtime.anti_entropy rt;
      Runtime.run rt;
      let s1 = Runtime.ae_stats rt in
      let _, bytes1 = mt_tag_stats rt in
      let sent = s1.Runtime.ae_keys_sent - s0.Runtime.ae_keys_sent in
      if sent <> expected then
        QCheck.Test.fail_reportf
          "transferred %d cells, symmetric difference is %d (only0=%d \
           only1=%d stale=%d)"
          sent expected only0 only1 stale;
      fail_strings "replicas still divergent" (Runtime.replica_divergence rt);
      fail_strings "tree audit" (Runtime.merkle_audit rt);
      (* Stale pairs resolve to the fresher plant at the owner. *)
      for i = 0 to stale - 1 do
        let key = Printf.sprintf "st-%d" i in
        if Runtime.peek rt ~key <> Some (Printf.sprintf "new-%d" i) then
          QCheck.Test.fail_reportf "stale pair %S not LWW-resolved" key
      done;
      (* Descent effort is O(depth · diff), never O(n): with no divergence
         every root frame prunes, and with divergence the frames served
         stay within twice the tree depth per differing cell. *)
      let frames = s1.Runtime.ae_frames - s0.Runtime.ae_frames in
      let leaves = s1.Runtime.ae_leaves - s0.Runtime.ae_leaves in
      if expected = 0 then begin
        if frames <> 0 || leaves <> 0 then
          QCheck.Test.fail_reportf
            "no divergence but %d frames / %d leaf exchanges" frames leaves;
        if bytes1 - bytes0 > 200 * (s1.Runtime.ae_roots - s0.Runtime.ae_roots)
        then
          QCheck.Test.fail_reportf "converged tree still spent %d mt bytes"
            (bytes1 - bytes0)
      end
      else begin
        let depth = Space.max_level space in
        if frames > 2 * depth * expected then
          QCheck.Test.fail_reportf "%d frames for diff %d: descent not \
                                    pruned" frames expected;
        if leaves > expected then
          QCheck.Test.fail_reportf "%d leaf exchanges for diff %d" leaves
            expected
      end;
      true)

(* --- (e) wire identity: the live tree changes host cost, not traffic --- *)

(* A seeded write-heavy run: 300 preloaded keys, then eight rounds that
   each open an anti-entropy round and a range read and keep issuing
   writes while the descents are in flight (so snapshots and live tables
   differ mid-descent), with one crash/restart and planted divergence.
   The engine advances in quarter-hop slices; with [audit] the hash-tree
   audit runs between every two of them. *)
let interleaved_run ~audit =
  let rt =
    Runtime.create
      ~faults:(Runtime.Fault.create ~seed:2004 ())
      ~pmin:8
      ~approach:(Runtime.Local { vmin = 2 })
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~mt_threshold:0 ~mt_leaf:4
      ~snodes:5 ~seed:2004 ()
  in
  let open Dht_core in
  for n = 1 to 4 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(n mod 5) ~vnode:(n / 5))
      ()
  done;
  Runtime.run rt;
  let rng = Rng.of_int 2004 in
  for k = 0 to 299 do
    Runtime.put rt ~via:(k mod 5)
      ~key:(Printf.sprintf "key-%d" k)
      ~value:"base" ()
  done;
  Runtime.run rt;
  let clock = ref (Engine.now (Runtime.engine rt)) in
  let ranges = ref 0 in
  for round = 0 to 7 do
    if round = 2 then Runtime.crash_snode rt 3;
    if round = 5 then Runtime.restart_snode rt 3;
    Runtime.plant rt ~snode:(round mod 5)
      ~key:(Printf.sprintf "div-%d" round)
      ~value:"planted" ~ts:1e-6 ();
    Runtime.anti_entropy rt;
    let lo = Rng.int rng (Space.size space / 2) in
    Runtime.range_get rt ~via:(Rng.int rng 5) ~lo
      ~hi:(lo + (Space.size space / 4))
      (fun _ -> incr ranges);
    for i = 1 to 60 do
      (* Writes keep landing while the round's descents are in flight;
         skewed keys: a hot tenth takes about half of them. *)
      if i <= 40 then begin
        let k = if Rng.int rng 2 = 0 then Rng.int rng 30 else Rng.int rng 300 in
        Runtime.put rt ~via:(Rng.int rng 5)
          ~key:(Printf.sprintf "key-%d" k)
          ~value:(Printf.sprintf "r%d-%d" round i)
          ()
      end;
      clock := !clock +. 25e-6;
      Runtime.run ~until:!clock rt;
      if audit then ignore (Runtime.merkle_audit rt)
    done
  done;
  Runtime.run rt;
  let net = Runtime.network rt in
  let s = Runtime.ae_stats rt in
  ( [
      s.Runtime.ae_roots;
      s.Runtime.ae_requests;
      s.Runtime.ae_frames;
      s.Runtime.ae_leaves;
      s.Runtime.ae_keys_sent;
    ],
    (Network.messages net, Network.bytes_sent net),
    !ranges )

let test_wire_identity_pin () =
  (* Pinned to the values the whole-store-rebuild implementation produced
     on this exact run: snapshots of the live tree must reproduce every
     anti-entropy frame, so every message and byte, except that each of
     the run's 72 empty-span probes is a root frame, one entry (16 bytes)
     larger than the flat digest that implementation sent, and each of its
     40 cell shipments is one entry (16 bytes) smaller, as a shipment no
     longer names its span. *)
  let ae, (msgs, bytes), ranges = interleaved_run ~audit:false in
  check
    Alcotest.(list int)
    "ae_stats (roots requests frames leaves keys_sent)"
    [ 824; 88; 176; 57; 40 ] ae;
  check Alcotest.int "messages" 9427 msgs;
  check Alcotest.int "bytes" 897116 bytes;
  check Alcotest.int "every range read completed" 8 ranges

let test_audit_is_transparent () =
  (* The audit must not touch the snapshot an in-flight descent reads:
     auditing between every two slices leaves all traffic unchanged. *)
  let quiet = interleaved_run ~audit:false in
  let audited = interleaved_run ~audit:true in
  let ae (a, _, _) = a and wire (_, w, _) = w in
  check Alcotest.(list int) "ae_stats" (ae quiet) (ae audited);
  check Alcotest.(pair int int) "messages and bytes" (wire quiet) (wire audited)

(* Under the default threshold a seed-scale span skips the descent: its
   receiver answers the root frame as a leaf, so a divergent span
   reconciles in one leaf exchange and ships exactly the symmetric
   difference (the planted cell, to each of the two replicas lacking
   it). A two-key leaf cap makes every span of more than two cells an
   interior frame, so without the threshold these spans would descend. *)
let test_small_span_leaf_exchange () =
  let rt =
    Runtime.create ~pmin:8
      ~approach:(Runtime.Local { vmin = 2 })
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~mt_leaf:2 ~snodes:4 ~seed:11
      ()
  in
  for k = 0 to 29 do
    Runtime.put rt ~via:(k mod 4)
      ~key:(Printf.sprintf "key-%d" k)
      ~value:(Printf.sprintf "v-%d" k)
      ()
  done;
  Runtime.run rt;
  Runtime.plant rt ~snode:1 ~key:"div-0" ~value:"planted" ~ts:1e-6 ();
  (* Two rounds: the planted cell first reaches the partition's primary,
     then the primary's next push carries it to the remaining replica. *)
  Runtime.anti_entropy rt;
  Runtime.run rt;
  Runtime.anti_entropy rt;
  Runtime.run rt;
  let s = Runtime.ae_stats rt in
  check Alcotest.(list string) "converges" [] (Runtime.replica_divergence rt);
  check Alcotest.int "no descent round" 0 s.Runtime.ae_requests;
  check Alcotest.int "no child frame" 0 s.Runtime.ae_frames;
  check Alcotest.bool "leaf exchanges ran" true (s.Runtime.ae_leaves > 0);
  check Alcotest.int "cells shipped = symmetric difference" 2
    s.Runtime.ae_keys_sent

(* --- range reads --- *)

let test_range_read_your_writes () =
  let rt =
    Runtime.create ~pmin:8
      ~approach:(Runtime.Local { vmin = 2 })
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes:4 ~seed:42 ()
  in
  let keys = 30 in
  for k = 0 to keys - 1 do
    Runtime.put rt ~via:(k mod 4)
      ~key:(Printf.sprintf "key-%d" k)
      ~value:(Printf.sprintf "v-%d" k)
      ()
  done;
  Runtime.run rt;
  (* Full-space range sees every acked write at its freshest value. *)
  let got = ref None in
  Runtime.range_get rt ~via:1 ~lo:0 ~hi:(Space.size space) (fun r ->
      got := Some r);
  Runtime.run rt;
  (match !got with
  | None -> Alcotest.fail "range_get never completed"
  | Some result ->
      check Alcotest.int "every key present" keys (List.length result);
      List.iter
        (fun (k, v) ->
          check Alcotest.(option string) ("range value of " ^ k)
            (Runtime.peek rt ~key:k) (Some v))
        result;
      let sorted = List.sort compare (List.map fst result) in
      check
        Alcotest.(list string)
        "sorted and duplicate-free"
        (List.sort_uniq compare (List.map fst result))
        sorted);
  (* A subrange returns exactly the keys hashing inside it. *)
  let lo = Space.size space / 4 and hi = Space.size space / 2 in
  let expected =
    List.init keys (fun k -> Printf.sprintf "key-%d" k)
    |> List.filter (fun key ->
           let p = Hash.string space key in
           p >= lo && p < hi)
    |> List.sort compare
  in
  let got = ref None in
  Runtime.range_get rt ~via:2 ~lo ~hi (fun r -> got := Some r);
  Runtime.run rt;
  (match !got with
  | None -> Alcotest.fail "subrange range_get never completed"
  | Some result ->
      check
        Alcotest.(list string)
        "subrange keys exact" expected (List.map fst result));
  (* Session order: a put acknowledged before the range is issued must be
     visible in it (read-your-writes through the range path). *)
  let seen = ref false in
  Runtime.put rt ~via:3 ~key:"session-key" ~value:"session-value"
    ~on_done:(fun () ->
      Runtime.range_get rt ~via:3 ~lo:0 ~hi:(Space.size space) (fun r ->
          seen := List.mem_assoc "session-key" r && List.assoc "session-key" r = "session-value"))
    ();
  Runtime.run rt;
  check Alcotest.bool "read-your-writes through range_get" true !seen;
  check Alcotest.int "ranges counted" 3 (Runtime.completed_ranges rt)

let test_range_excludes_shed_writes () =
  (* An admission deadline no quorum round can meet: every put sheds with
     Busy and is applied nowhere, so ranges must never surface one. The
     planted baseline (injected beneath admission control) proves the
     range itself still completes — Busy applies to point quorum ops
     only. *)
  let rt =
    Runtime.create
      ~faults:(Runtime.Fault.create ~seed:17 ())
      ~pmin:8
      ~approach:(Runtime.Local { vmin = 2 })
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~admission_deadline:1e-9
      ~snodes:4 ~seed:17 ()
  in
  for i = 0 to 9 do
    let key = Printf.sprintf "base-%d" i in
    let value = Printf.sprintf "kept-%d" i in
    for sn = 0 to 3 do
      Runtime.plant rt ~snode:sn ~key ~value ~ts:1e-6 ()
    done
  done;
  let acked = ref 0 in
  for i = 0 to 9 do
    Runtime.put rt ~via:(i mod 4)
      ~key:(Printf.sprintf "base-%d" i)
      ~value:(Printf.sprintf "shed-%d" i)
      ~on_done:(fun () -> incr acked)
      ()
  done;
  Runtime.run rt;
  check Alcotest.int "every write shed" 0 !acked;
  let got = ref None in
  Runtime.range_get rt ~via:0 ~lo:0 ~hi:(Space.size space) (fun r ->
      got := Some r);
  Runtime.run rt;
  match !got with
  | None -> Alcotest.fail "range_get shed or lost"
  | Some result ->
      check Alcotest.int "ranges are never shed" 10 (List.length result);
      List.iter
        (fun (k, v) ->
          if String.length v >= 4 && String.sub v 0 4 = "shed" then
            Alcotest.failf "range surfaced shed write %S at %S" v k)
        result

let prop_range_mid_churn =
  QCheck.Test.make
    ~name:"range: complete and duplicate-free across 100 mid-migration \
           schedules"
    ~count:100 QCheck.small_int (fun salt ->
      let rng = Rng.of_int ((salt * 271) + 9) in
      let snodes = 3 + Rng.int rng 3 in
      let rt =
        Runtime.create ~pmin:8
          ~approach:(Runtime.Local { vmin = 2 })
          ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes ~seed:salt ()
      in
      let open Dht_core in
      for n = 1 to 2 + Rng.int rng 3 do
        Runtime.create_vnode rt
          ~id:(Vnode_id.make ~snode:(n mod snodes) ~vnode:(n / snodes))
          ()
      done;
      Runtime.run rt;
      let keys = 15 + Rng.int rng 15 in
      for k = 0 to keys - 1 do
        Runtime.put rt ~via:(k mod snodes)
          ~key:(Printf.sprintf "key-%d" k)
          ~value:(Printf.sprintf "v-%d" k)
          ()
      done;
      Runtime.run rt;
      (* A migration in flight while the range runs: the balancing event
         and the range interleave arbitrarily; the epoch-fenced commit
         must never let the range observe a partition twice or a hole. *)
      let g = 7 + Rng.int rng 5 in
      Runtime.create_vnode rt
        ~id:(Vnode_id.make ~snode:(g mod snodes) ~vnode:(g / snodes))
        ();
      let lo = Rng.int rng (Space.size space / 2) in
      let hi = lo + 1 + Rng.int rng (Space.size space - lo - 1) in
      let got = ref None in
      Runtime.range_get rt ~via:(Rng.int rng snodes) ~lo ~hi (fun r ->
          got := Some r);
      Runtime.run rt;
      match !got with
      | None -> QCheck.Test.fail_reportf "range never completed"
      | Some result ->
          let names = List.map fst result in
          if List.sort_uniq compare names <> List.sort compare names then
            QCheck.Test.fail_reportf "duplicate keys in range result";
          let expected =
            List.init keys (fun k -> Printf.sprintf "key-%d" k)
            |> List.filter (fun key ->
                   let p = Hash.string space key in
                   p >= lo && p < hi)
            |> List.sort compare
          in
          if List.sort compare names <> expected then
            QCheck.Test.fail_reportf
              "range incomplete mid-migration: got %d of %d keys"
              (List.length names) (List.length expected);
          List.for_all
            (fun (k, v) -> Runtime.peek rt ~key:k = Some v)
            result)

(* --- hinted handoff must still drain under a full tree descent --- *)

let test_hint_drain_under_tree_protocol () =
  (* The restart broadcast (Ae_request) is what re-offers parked hints,
     and each peer sends its hint flushes ahead of its hash-tree probes
     ([mt_threshold = 0]: every span descends). No fault plan, so no
     reliable layer retransmits the writes the dead replica missed: only
     the hints can bring it up to date before the probes compare, and
     then the anti-entropy push ships nothing. *)
  let rt =
    Runtime.create ~rfactor:3 ~read_quorum:2 ~write_quorum:2
      ~mt_threshold:0 ~mt_leaf:4 ~snodes:5 ~seed:9 ()
  in
  Runtime.crash_snode rt 2;
  let acked = ref 0 in
  for i = 0 to 9 do
    Runtime.put rt ~via:0
      ~on_done:(fun () -> incr acked)
      ~key:(Printf.sprintf "h%d" i)
      ~value:(string_of_int i) ()
  done;
  let e = Runtime.engine rt in
  Runtime.run ~until:(Engine.now e +. 0.5) rt;
  check Alcotest.int "writes complete despite the dead replica" 10 !acked;
  let s = Runtime.repl_stats rt in
  check Alcotest.bool "hints parked" true (s.Runtime.hints_stored >= 10);
  Runtime.restart_snode rt 2;
  Runtime.run rt;
  let s = Runtime.repl_stats rt in
  check Alcotest.int "every hint drained under the tree protocol"
    s.Runtime.hints_stored s.Runtime.hints_flushed;
  let keys = List.init 10 (Printf.sprintf "h%d") in
  let space = Runtime.space rt in
  let sv =
    List.find
      (fun (sv : Runtime.View.snode_view) -> sv.sid = 2)
      (Runtime.view rt).Runtime.View.snodes
  in
  let replica key =
    let p = Hash.string space key in
    List.exists (fun (sp, set) -> Span.contains space sp p && List.mem 2 set) sv.rmap
  in
  let held key =
    List.mem_assoc key sv.replicas
    || List.exists (fun (v : Runtime.View.vnode_view) -> List.mem_assoc key v.data) sv.vnodes
  in
  check Alcotest.bool "the restarted snode replicates some keys" true
    (List.exists replica keys);
  check (Alcotest.list Alcotest.string) "the restarted replica holds its keys" []
    (List.filter (fun k -> replica k && not (held k)) keys);
  check Alcotest.int "the hints repaired it: anti-entropy shipped no cell" 0
    (Runtime.ae_stats rt).Runtime.ae_keys_sent;
  let wrong = ref 0 in
  for i = 0 to 9 do
    Runtime.get rt ~via:2
      ~key:(Printf.sprintf "h%d" i)
      (fun v -> if v <> Some (string_of_int i) then incr wrong)
  done;
  Runtime.run rt;
  check Alcotest.int "no stale reads after recovery" 0 !wrong

(* --- schedule exploration over Mt_* frames --- *)

let test_mt_protected_sweep () =
  (* Tree frames deferred, dropped (reliably retransmitted) or caught in
     crash windows must never corrupt state or lose a planted cell. *)
  let sc = Scenarios.mt_ae () in
  match Explorer.explore ~rounds:5 ~max_tweaks:3 sc ~seeds:[ 101; 102 ] with
  | None -> ()
  | Some (o : Explorer.outcome) ->
      Alcotest.failf "mt-ae failed under %s:@.%s"
        (Schedule.to_string o.schedule)
        (String.concat "\n" o.failures)

let repro_path =
  if Sys.file_exists "repros/mt-reconciliation-race.sched" then
    "repros/mt-reconciliation-race.sched"
  else "test/repros/mt-reconciliation-race.sched"

let test_mt_repro_replays () =
  (* Committed shrunk schedule: in mutation mode (no reliable layer) the
     sunk message silently kills one reconciliation exchange, and the
     verifier must still detect the unreconciled planted cell. *)
  match Schedule.load ~path:repro_path with
  | Error m -> Alcotest.failf "cannot load %s: %s" repro_path m
  | Ok sched -> (
      match Scenarios.by_name sched.Schedule.scenario with
      | None ->
          Alcotest.failf "unknown scenario %S in repro" sched.Schedule.scenario
      | Some sc -> (
          let o = Explorer.run sc sched in
          match o.Explorer.failures with
          | [] -> Alcotest.failf "repro %s no longer fails" repro_path
          | msgs ->
              check Alcotest.bool "failure is an unreconciled planted cell"
                true
                (List.exists
                   (fun m ->
                     let has affix =
                       let n = String.length affix and len = String.length m in
                       let rec go i =
                         i + n <= len
                         && (String.sub m i n = affix || go (i + 1))
                       in
                       go 0
                     in
                     has "not reconciled" || has "MERKLE")
                   msgs)))

let to_alcotest = QCheck_alcotest.to_alcotest

let suite =
  [
    to_alcotest prop_incremental_rehash;
    to_alcotest prop_subrange_frames;
    to_alcotest prop_snapshot_isolation;
    to_alcotest prop_snapshot_interleavings;
    to_alcotest prop_range_query;
    to_alcotest prop_live_tree_sweep;
    to_alcotest prop_reconciliation;
    Alcotest.test_case
      "a span at or under the threshold reconciles in one leaf exchange"
      `Quick test_small_span_leaf_exchange;
    Alcotest.test_case "live-tree snapshots keep AE traffic byte-identical"
      `Quick test_wire_identity_pin;
    Alcotest.test_case "merkle_audit mid-descent changes no traffic" `Quick
      test_audit_is_transparent;
    Alcotest.test_case "range: read-your-writes and exact subranges" `Quick
      test_range_read_your_writes;
    Alcotest.test_case "range: shed writes never surface" `Quick
      test_range_excludes_shed_writes;
    to_alcotest prop_range_mid_churn;
    Alcotest.test_case "hints drain before the restart's tree probe" `Quick
      test_hint_drain_under_tree_protocol;
    Alcotest.test_case "mt-ae protected sweep is clean" `Slow
      test_mt_protected_sweep;
    Alcotest.test_case "committed reconciliation-race repro replays" `Quick
      test_mt_repro_replays;
  ]
