open Dht_core
open Dht_hashspace
module Registry = Dht_telemetry.Registry
module Hash = Dht_hashes.Hash
module Versioned = Dht_kv.Versioned
module Merkle = Dht_merkle.Merkle

(* String-keyed tables with the generic table's hash, so bucket and
   iteration order are exactly those of a [(string, _) Hashtbl.t]; only
   the polymorphic compare on every probe goes. *)
module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* One mutable slot per stored key: an LWW update lands with a single
   table probe (find, then overwrite in place) instead of the
   find-then-replace double hash. Slots are per-table; the immutable cell
   inside may be shared across snodes, the slot never is. *)
type slot = { mutable cell : Versioned.cell }

(* A held-cell table — one vnode's partition data or a snode's replica
   copies — tagged with the snode whose hash tree it feeds. *)
type table = {
  sid : int;  (* the snode whose tree the table feeds *)
  cells : slot Stbl.t;
}

type node = {
  (* Cells held as a non-owner replica (including hinted parking). *)
  replicas : table;
  (* Live hash tree over every cell the snode holds, owner partitions and
     replica copies alike, kept in step with the tables by [hold] and
     [drop]. It answers span digests and range legs, and AE snapshots
     are O(1) copies of it. Built lazily on first read, dropped
     when the writes since its last read outnumber its cells (a rebuild
     on next use is then cheaper than upkeep). Soft state, like [mtree]. *)
  mutable live : Versioned.cell Merkle.t option;
  mutable live_writes : int;  (* tree updates since the last read *)
  (* Anti-entropy snapshot: the live tree as it stood when the current
     push round opened ([Merkle.frame_at] clips per-partition frames out
     of it). Later writes to the live tree copy any node they share with
     it, so they never reach it. Soft state
     — losing it to a crash costs one snapshot. *)
  mutable mtree : Versioned.cell Merkle.t option;
  (* Push-round counter stamped into [Mt_root] frames. Durable: a
     restarted pusher must keep superseding its old rounds. *)
  mutable ae_round : int;
  (* Last round snapshotted per pushing peer, so one rebuild serves every
     span that peer pushes in a round. Soft state, like the tree. *)
  ae_seen : (int, int) Hashtbl.t;
}

type ae_stats = {
  ae_roots : int;  (* span probes pushed (Mt_root sent) *)
  ae_requests : int;  (* descent rounds (Mt_request messages) *)
  ae_frames : int;  (* child frames shipped in Mt_frames *)
  ae_leaves : int;  (* divergent leaves key-listed (Mt_leaf) *)
  ae_keys_sent : int;  (* cells shipped by anti-entropy syncs *)
}

type t = {
  space : Space.t;
  mt_threshold : int;
      (* a pushed span holding at most this many cells skips the descent:
         its receiver answers the root frame as a leaf. [max_int] never
         descends. *)
  mt_leaf : int;  (* hash-tree bucket capacity *)
  owner : int -> int -> table;  (* owning partition's table; Not_found *)
  tables : int -> (Vnode_id.t -> table -> unit) -> unit;  (* in table order *)
  nodes : node array;
  mutable sync_cells : int;  (* cells freshened by anti-entropy syncs *)
  mutable orphans : int;  (* replica-table cells routed back to an owner *)
  mutable ae : ae_stats;  (* immutable, replaced per count: [ae_stats] hands it out *)
}

let create ~space ~mt_threshold ~mt_leaf ~snodes ~owner ~tables =
  if mt_threshold < 0 then invalid_arg "Runtime.create: mt_threshold < 0";
  if mt_leaf < 1 then invalid_arg "Runtime.create: mt_leaf < 1";
  let node sid =
    {
      replicas = { sid; cells = Stbl.create 16 };
      live = None;
      live_writes = 0;
      mtree = None;
      ae_round = 0;
      ae_seen = Hashtbl.create 8;
    }
  in
  {
    space;
    mt_threshold;
    mt_leaf;
    owner;
    tables;
    nodes = Array.init snodes node;
    sync_cells = 0;
    orphans = 0;
    ae =
      {
        ae_roots = 0;
        ae_requests = 0;
        ae_frames = 0;
        ae_leaves = 0;
        ae_keys_sent = 0;
      };
  }

let table sid = { sid; cells = Stbl.create 16 }

(* ------------------------------------------------------------------ *)
(* Writes                                                               *)

(* The one update point for held cells: every write to or removal from a
   table goes through [hold] or [drop], which keep the live hash tree in
   step with the tables. A tree that has absorbed more updates since its
   last read than it holds cells is dropped instead: rebuilding it on
   next use is then the cheaper path (bulk key loads into a store nobody
   reads pay no upkeep at all). *)
let live_for_update n =
  match n.live with
  | None -> None
  | Some tree as live ->
      n.live_writes <- n.live_writes + 1;
      if n.live_writes > Merkle.count tree then begin
        n.live <- None;
        None
      end
      else live

(* Store [cell] under [key] in [tbl]: unconditionally with [~lww:false],
   otherwise only when strictly fresher than the held copy (LWW, biased
   to the incumbent). Single probe on the update path. Returns [true]
   when the held cell changed (new key or replaced version). *)
let hold ?(lww = true) st tbl ~point ~key cell =
  let changed =
    match Stbl.find tbl.cells key with
    | exception Not_found ->
        Stbl.add tbl.cells key { cell };
        true
    | s ->
        if
          lww
          && not
               (Versioned.newer cell.Versioned.version s.cell.Versioned.version)
        then false
        else begin
          s.cell <- cell;
          true
        end
  in
  (if changed then
     match live_for_update st.nodes.(tbl.sid) with
     | Some tree ->
         Merkle.insert tree ~key ~point ~digest:(Versioned.digest key cell) cell
     | None -> ());
  changed

let drop st tbl ~point ~key =
  Stbl.remove tbl.cells key;
  match live_for_update st.nodes.(tbl.sid) with
  | Some tree -> ignore (Merkle.remove tree ~key ~point)
  | None -> ()

(* Remove from [tbl] every key whose point satisfies [leaving] and return
   those cells as (key, point, cell), in reverse table order. *)
let take_cells st tbl leaving =
  let moved =
    Stbl.fold
      (fun key s acc ->
        let point = Hash.string st.space key in
        if leaving point then (key, point, s.cell) :: acc else acc)
      tbl.cells []
  in
  List.iter (fun (key, point, _) -> drop st tbl ~point ~key) moved;
  moved

let take st tbl leaving =
  List.map (fun (key, _, cell) -> (key, cell)) (take_cells st tbl leaving)

(* A snode that just gained ownership of [tbl]'s new spans absorbs any
   copies it already held as a mere replica (they may be fresher than the
   transferred data if a quorum write landed mid-migration). The tree
   keeps one cell per key: after the drop, re-insert whichever copy wins
   even when the partition's copy stays. *)
let absorb st tbl moving =
  List.iter
    (fun (key, point, cell) ->
      let cell =
        match Stbl.find_opt tbl.cells key with
        | Some s -> Versioned.merge ~mine:s.cell ~theirs:cell
        | None -> cell
      in
      ignore (hold ~lww:false st tbl ~point ~key cell))
    (take_cells st st.nodes.(tbl.sid).replicas moving)

(* Replica copies whose point satisfies [stray] leave the snode, counted
   as orphans and sorted by key for the caller to route home. *)
let take_orphans st sid stray =
  let gone = take_cells st st.nodes.(sid).replicas stray in
  st.orphans <- st.orphans + List.length gone;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) gone

(* The table choice, one for reads and writes: an owner keeps a cell in
   its partition table, any other snode in its replica table. *)
let table_for st sid point =
  match st.owner sid point with
  | tbl -> tbl
  | exception Not_found -> st.nodes.(sid).replicas

let store st sid ~point ~key cell = hold st (table_for st sid point) ~point ~key cell
let find tbl key =
  match Stbl.find tbl.cells key with
  | s -> Some s.cell
  | exception Not_found -> None
let value tbl key = Option.map (fun c -> c.Versioned.value) (find tbl key)
let lookup st sid ~point ~key = find (table_for st sid point) key

let bindings tbl =
  Stbl.fold (fun k s acc -> (k, s.cell.Versioned.value) :: acc) tbl.cells []
  |> List.sort compare

let replica_bindings st sid = bindings st.nodes.(sid).replicas

(* ------------------------------------------------------------------ *)
(* Reads through the live tree                                          *)

(* Every held cell as a [Merkle.build] tuple. The per-cell digest is
   [Versioned.digest] and tree hashes combine by XOR, so a tree frame for
   any span equals the flat digest a scan of that span would fold. *)
let held_cells st sid =
  let cells = ref [] in
  let consider key s =
    let point = Hash.string st.space key in
    cells := (key, point, Versioned.digest key s.cell, s.cell) :: !cells
  in
  Stbl.iter consider st.nodes.(sid).replicas.cells;
  st.tables sid (fun _ tbl -> Stbl.iter consider tbl.cells);
  !cells

let build st cells =
  Merkle.build ~leaf_cap:st.mt_leaf ~space:st.space ~span:Span.root cells

(* The live tree, rebuilt over the tables if a crash or the stale-drop
   rule discarded it. Every read restarts the stale-drop count. *)
let live_tree st sid =
  let n = st.nodes.(sid) in
  n.live_writes <- 0;
  match n.live with
  | Some tree -> tree
  | None ->
      let tree = build st (held_cells st sid) in
      n.live <- Some tree;
      tree

(* Order-insensitive digest of [span]: cell count and XOR-folded per-cell
   hashes. Two snodes agree iff they hold the same cells for the span. *)
let digest st sid span =
  let f = Merkle.frame_at (live_tree st sid) span in
  (f.Merkle.f_count, f.Merkle.f_hash)

(* Every cell held whose key hashes into [lo, hi), sorted by key — the
   replica-side scan behind one range-read leg. *)
let range st sid ~lo ~hi = Merkle.range (live_tree st sid) ~lo ~hi

(* ------------------------------------------------------------------ *)
(* Anti-entropy snapshots and the frame protocol                        *)

(* Snapshot the live tree for anti-entropy: O(1), and later writes never
   reach it ([Merkle.snapshot] freezes every node the two handles share). *)
let snapshot st sid =
  let tree = Merkle.snapshot (live_tree st sid) in
  st.nodes.(sid).mtree <- Some tree;
  tree

(* The session snapshot, re-taken only if a crash wiped it. Mid-descent
   writes are invisible until the next round re-snapshots — anti-entropy
   reconciles snapshots, quorum replication covers the live traffic. *)
let mtree st sid =
  match st.nodes.(sid).mtree with Some tree -> tree | None -> snapshot st sid

(* A receiver re-snapshots the first time it sees a pusher's round, so
   one snapshot serves every span the peer pushes in it. *)
let mtree_for_round st sid ~owner ~round =
  let n = st.nodes.(sid) in
  if Hashtbl.find_opt n.ae_seen owner <> Some round then begin
    Hashtbl.replace n.ae_seen owner round;
    ignore (snapshot st sid)
  end

(* Owner-side probe of one partition span: its root frame, cut from the
   round's snapshot. *)
let probe st sid span =
  let f = Merkle.frame_at (mtree st sid) span in
  st.ae <- { st.ae with ae_roots = st.ae.ae_roots + 1 };
  Wire.Mt_root
    {
      round = st.nodes.(sid).ae_round;
      span;
      count = f.Merkle.f_count;
      vhash = f.Merkle.f_hash;
    }

(* Every push opens a fresh round: a probe cut from an older snapshot
   could miss cells that arrived since (a seeding push right after a
   transfer would then find the new, empty replicas in agreement). *)
let push st sid probes =
  let n = st.nodes.(sid) in
  n.ae_round <- n.ae_round + 1;
  ignore (snapshot st sid);
  List.map (fun (dst, span) -> (dst, probe st sid span)) probes

(* Receiver-side comparison of one pushed frame against our snapshot.
   Equal frames prune the whole subtree ([None]); a divergent frame
   either descends ([Right span]: both sides still have finer frames) or,
   at a leaf, ships our per-key digests ([Left Mt_leaf]) so only the
   symmetric difference crosses the wire afterwards. *)
let compare_frame st sid (span, count, hash, leaf) =
  let tree = mtree st sid in
  let mine = Merkle.frame_at tree span in
  if mine.Merkle.f_count = count && mine.Merkle.f_hash = hash then None
  else if
    leaf || mine.Merkle.f_leaf || Span.level span >= Space.max_level st.space
  then begin
    let keys = List.map (fun (k, d, _) -> (k, d)) (Merkle.entries_at tree span) in
    st.ae <- { st.ae with ae_leaves = st.ae.ae_leaves + 1 };
    Some (Either.Left (Wire.Mt_leaf { span; keys }))
  end
  else Some (Either.Right span)

(* Leaf lists for the divergent frames, then one request for the children
   of every frame that can still descend. *)
let descend st sid frames =
  let leaves, deeper =
    List.partition_map Fun.id (List.filter_map (compare_frame st sid) frames)
  in
  if deeper = [] then leaves
  else begin
    st.ae <- { st.ae with ae_requests = st.ae.ae_requests + 1 };
    leaves @ [ Wire.Mt_request { spans = deeper } ]
  end

let sync_reply st cells =
  if cells = [] then []
  else begin
    st.ae <- { st.ae with ae_keys_sent = st.ae.ae_keys_sent + List.length cells };
    [ Wire.Repl_sync { cells } ]
  end

let answer st sid ~from ~synced msg =
  match msg with
  | Wire.Repl_sync { cells } ->
      List.iter
        (fun (key, cell) ->
          let point = Hash.string st.space key in
          if hold st (table_for st sid point) ~point ~key cell then begin
            synced ~point ~key cell;
            st.sync_cells <- st.sync_cells + 1
          end)
        cells;
      []
  | Wire.Mt_root { round; span; count; vhash } ->
      (* A span at or under the threshold skips the descent: a divergent
         one resolves in a single leaf exchange. *)
      mtree_for_round st sid ~owner:from ~round;
      descend st sid [ (span, count, vhash, count <= st.mt_threshold) ]
  | Wire.Mt_request { spans } ->
      (* Pusher side of one descent round: answer each divergent span
         with its two children's frames (or its own, marked leaf, when
         the space cannot split further). *)
      let tree = mtree st sid in
      let frame (f : Merkle.frame) =
        (f.Merkle.f_span, f.Merkle.f_count, f.Merkle.f_hash, f.Merkle.f_leaf)
      in
      let frames =
        List.concat_map
          (fun s ->
            if Span.level s >= Space.max_level st.space then
              let f = Merkle.frame_at tree s in
              [ (s, f.Merkle.f_count, f.Merkle.f_hash, true) ]
            else
              let a, b = Merkle.children tree s in
              [ frame a; frame b ])
          spans
      in
      st.ae <- { st.ae with ae_frames = st.ae.ae_frames + List.length frames };
      [ Wire.Mt_frames { frames } ]
  | Wire.Mt_frames { frames } -> descend st sid frames
  | Wire.Mt_leaf { span; keys } ->
      (* A divergent leaf, as the peer's (key, digest) list. Ship every
         cell it lacks or holds differently (LWW at the receiver keeps
         whichever is fresher), and ask for its copy of everything we
         lack or hold differently — so exactly the symmetric difference
         crosses the wire. *)
      let mine = Merkle.entries_at (mtree st sid) span in
      let theirs = Stbl.create (List.length keys + 1) in
      List.iter (fun (k, d) -> Stbl.replace theirs k d) keys;
      let to_send =
        List.filter_map
          (fun (k, d, cell) ->
            match Stbl.find_opt theirs k with
            | Some d' when d' = d -> None
            | _ -> Some (k, cell))
          mine
      in
      let mine_tbl = Stbl.create (List.length mine + 1) in
      List.iter (fun (k, d, _) -> Stbl.replace mine_tbl k d) mine;
      let want =
        List.filter_map
          (fun (k, d) ->
            match Stbl.find_opt mine_tbl k with
            | Some d' when d' = d -> None
            | _ -> Some k)
          keys
      in
      sync_reply st to_send
      @ if want = [] then [] else [ Wire.Mt_want { span; keys = want } ]
  | Wire.Mt_want { keys; _ } ->
      (* Answer from the live store: these are our freshest copies, and a
         key dropped since the snapshot is simply omitted. *)
      let cells =
        List.filter_map
          (fun key ->
            let point = Hash.string st.space key in
            Option.map (fun c -> (key, c)) (lookup st sid ~point ~key))
          keys
      in
      sync_reply st cells
  | _ -> invalid_arg "Store.answer: not an anti-entropy message"

(* The live tree, the anti-entropy snapshot and the per-peer round
   markers are soft state: a restarted snode rebuilds and re-snapshots on
   first use. *)
let crash st sid =
  let n = st.nodes.(sid) in
  n.live <- None;
  n.mtree <- None;
  Hashtbl.reset n.ae_seen

(* ------------------------------------------------------------------ *)
(* Audit and counters                                                   *)

(* Free of side effects: an in-flight descent keeps reading the snapshot
   it had. *)
let audit st sid ~rmap =
  let findings = ref [] in
  let bad fmt = Format.kasprintf (fun s -> findings := s :: !findings) fmt in
  let n = st.nodes.(sid) in
  Stbl.iter
    (fun key _ ->
      st.tables sid (fun vid tbl ->
          if Stbl.mem tbl.cells key then
            bad "snode %d: key %S held as a replica and by vnode %a" sid key
              Vnode_id.pp vid))
    n.replicas.cells;
  let cells = held_cells st sid in
  let rebuilt = build st cells in
  List.iter (fun issue -> bad "snode %d: %s" sid issue) (Merkle.check rebuilt);
  let tree =
    match n.live with
    | None -> rebuilt
    | Some live ->
        List.iter
          (fun issue -> bad "snode %d: live tree: %s" sid issue)
          (Merkle.check live);
        if not (Merkle.equal live rebuilt) then
          bad "snode %d: live tree differs from a rebuild over its tables" sid;
        live
  in
  (* Flat scan digests per replica-map span, one pass over the tables (a
     key held twice counts twice). *)
  let scan = Hashtbl.create 64 in
  List.iter
    (fun (_, point, digest, _) ->
      match Point_map.find_point rmap point with
      | span, _ ->
          let c, h = Option.value (Hashtbl.find_opt scan span) ~default:(0, 0) in
          Hashtbl.replace scan span (c + 1, h lxor digest)
      | exception Not_found -> ())
    cells;
  List.iter
    (fun (span, _) ->
      let f = Merkle.frame_at tree span in
      let count, vhash =
        Option.value (Hashtbl.find_opt scan span) ~default:(0, 0)
      in
      if f.Merkle.f_count <> count || f.Merkle.f_hash <> vhash then
        bad "snode %d span %a: tree frame (%d, %x) <> scan digest (%d, %x)" sid
          Span.pp span f.Merkle.f_count f.Merkle.f_hash count vhash)
    (Point_map.to_list rmap);
  List.rev !findings

let ae_stats st = st.ae

let sync_cells st = st.sync_cells
let orphans st = st.orphans

let record_metrics st reg =
  let c name v = Registry.inc (Registry.counter reg name) v in
  c "runtime.repl.sync.cells" st.sync_cells;
  c "runtime.repl.sync.orphans" st.orphans;
  c "runtime.ae.roots" st.ae.ae_roots;
  c "runtime.ae.requests" st.ae.ae_requests;
  c "runtime.ae.frames" st.ae.ae_frames;
  c "runtime.ae.leaves" st.ae.ae_leaves;
  c "runtime.ae.keys_sent" st.ae.ae_keys_sent
