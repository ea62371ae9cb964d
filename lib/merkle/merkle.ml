open Dht_hashspace

(* A member cell: identity is the caller-supplied digest; the payload is
   carried so a divergent leaf can be shipped without re-reading the
   backing store. Immutable, so any number of snapshots may share it. *)
type 'a entry = {
  e_key : string;
  e_point : int;
  e_digest : int;
  e_payload : 'a;
}

(* Every node carries the stamp of the handle that created it. A handle
   updates the nodes bearing its own stamp in place and path-copies the
   rest, stamping the copies as its own. [snapshot] gives both handles
   fresh stamps, so every node that existed at that point is frozen: each
   handle copies a shared node before its first change to it, and neither
   ever sees the other's later updates. Invariants: an owned node's
   ancestors are owned too (copies are made from the root down), a frozen
   node only points at frozen nodes, and no bucket array is shared by two
   leaves (copying a leaf copies its array). Leaf members are sorted by
   key (binary-searched on update, already ordered on transfer). *)
type 'a node =
  | Leaf of {
      l_owner : int;
      mutable l_hash : int;
      mutable cells : 'a entry array;
    }
  | Node of {
      n_owner : int;
      mutable n_count : int;
      mutable n_hash : int;
      mutable left : 'a node;
      mutable right : 'a node;
    }

type 'a t = {
  space : Space.t;
  tspan : Span.t;
  cap : int;
  mutable root : 'a node;
  mutable stamp : int;  (* owner stamp of the nodes this handle may mutate *)
}

let stamps = Atomic.make 0
let fresh_stamp () = Atomic.fetch_and_add stamps 1

type frame = { f_span : Span.t; f_count : int; f_hash : int; f_leaf : bool }

let node_count = function Leaf l -> Array.length l.cells | Node n -> n.n_count
let node_hash = function Leaf l -> l.l_hash | Node n -> n.n_hash
let is_bucket = function Leaf _ -> true | Node _ -> false
let leaf_of stamp cells =
  Leaf
    {
      l_owner = stamp;
      l_hash = Array.fold_left (fun h e -> h lxor e.e_digest) 0 cells;
      cells;
    }

let join stamp left right =
  Node
    {
      n_owner = stamp;
      n_count = node_count left + node_count right;
      n_hash = node_hash left lxor node_hash right;
      left;
      right;
    }

(* Descent geometry on plain integers: a node at [level] sends [point]
   left iff the bit just below the level's prefix is clear. *)
let goes_left space level point =
  (point lsr (Space.bits space - level - 1)) land 1 = 0

let create ?(leaf_cap = 16) ~space ~span () =
  if leaf_cap < 1 then invalid_arg "Merkle.create: leaf_cap must be >= 1";
  let stamp = fresh_stamp () in
  { space; tspan = span; cap = leaf_cap; root = leaf_of stamp [||]; stamp }

let snapshot t =
  t.stamp <- fresh_stamp ();
  { t with stamp = fresh_stamp () }

let space t = t.space
let span t = t.tspan
let leaf_cap t = t.cap
let count t = node_count t.root
let digest t = node_hash t.root

let by_key a b = String.compare a.e_key b.e_key

let by_point a b =
  match Int.compare a.e_point b.e_point with
  | 0 -> String.compare a.e_key b.e_key
  | c -> c

(* Canonical subtree over [members.(lo .. hi-1)], sorted by point: every
   dyadic subspan is then a contiguous slice, found by binary search on
   the midpoint, and only each bucket pays a (short) sort by key. *)
let rec of_point_sorted stamp space cap level start members lo hi =
  if hi - lo <= cap || level >= Space.max_level space then begin
    let cells = Array.sub members lo (hi - lo) in
    Array.sort by_key cells;
    leaf_of stamp cells
  end
  else begin
    let mid = start + (1 lsl (Space.bits space - level - 1)) in
    let rec first lo' hi' =
      if lo' >= hi' then lo'
      else
        let m = (lo' + hi') lsr 1 in
        if members.(m).e_point < mid then first (m + 1) hi' else first lo' m
    in
    let cut = first lo hi in
    join stamp
      (of_point_sorted stamp space cap (level + 1) start members lo cut)
      (of_point_sorted stamp space cap (level + 1) mid members cut hi)
  end

let build ?(leaf_cap = 16) ~space ~span cells =
  if leaf_cap < 1 then invalid_arg "Merkle.build: leaf_cap must be >= 1";
  let members =
    Array.of_list
      (List.filter_map
         (fun (key, point, digest, payload) ->
           if Span.contains space span point then
             Some
               {
                 e_key = key;
                 e_point = point;
                 e_digest = digest;
                 e_payload = payload;
               }
           else None)
         cells)
  in
  (* Stable, so after the sort a repeated key's occurrences sit together
     in input order and the last one wins. *)
  Array.stable_sort by_point members;
  let n = Array.length members in
  let kept = ref 0 in
  Array.iteri
    (fun i e ->
      if i + 1 = n || not (String.equal members.(i + 1).e_key e.e_key) then
      begin
        members.(!kept) <- e;
        incr kept
      end)
    members;
  let stamp = fresh_stamp () in
  {
    space;
    tspan = span;
    cap = leaf_cap;
    root =
      of_point_sorted stamp space leaf_cap (Span.level span)
        (Span.start space span) members 0 !kept;
    stamp;
  }

(* First index whose key is >= [key]. The update paths below are
   top-level recursions with every input passed explicitly, so no call
   builds a closure. *)
let rec lower_bound_in cells key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if String.compare cells.(mid).e_key key < 0 then
      lower_bound_in cells key (mid + 1) hi
    else lower_bound_in cells key lo mid

let lower_bound cells key = lower_bound_in cells key 0 (Array.length cells)

let holds cells i key =
  i < Array.length cells && String.equal cells.(i).e_key key

(* The leaf [node] holding [cells] under [l_hash]: [node] itself, updated
   in place, when [t] owns it, else a fresh leaf stamped as [t]'s. *)
let set_leaf t node ~l_hash cells =
  match node with
  | Leaf l when l.l_owner = t.stamp ->
      l.cells <- cells;
      l.l_hash <- l_hash;
      node
  | _ -> Leaf { l_owner = t.stamp; l_hash; cells }

(* [node] after writing [e] beneath it: the node itself, updated in place
   when [t] owns it (or unchanged), else a fresh copy stamped as [t]'s. *)
let rec insert_at t e level node =
  match node with
  | Leaf l ->
      let cells = l.cells in
      let i = lower_bound cells e.e_key in
      if holds cells i e.e_key then begin
        let old = cells.(i) in
        if old.e_digest = e.e_digest && old.e_payload == e.e_payload then node
        else begin
          let cells = if l.l_owner = t.stamp then cells else Array.copy cells in
          cells.(i) <- e;
          set_leaf t node ~l_hash:(l.l_hash lxor old.e_digest lxor e.e_digest)
            cells
        end
      end
      else begin
        let n = Array.length cells in
        let grown = Array.make (n + 1) e in
        Array.blit cells 0 grown 0 i;
        Array.blit cells i grown (i + 1) (n - i);
        if n + 1 > t.cap && level < Space.max_level t.space then begin
          (* Overfull and splittable: re-shape this span canonically. *)
          let shift = Space.bits t.space - level in
          Array.sort by_point grown;
          of_point_sorted t.stamp t.space t.cap level
            ((e.e_point lsr shift) lsl shift)
            grown 0 (n + 1)
        end
        else set_leaf t node ~l_hash:(l.l_hash lxor e.e_digest) grown
      end
  | Node n ->
      let go_left = goes_left t.space level e.e_point in
      let child = if go_left then n.left else n.right in
      let child' = insert_at t e (level + 1) child in
      if n.n_owner = t.stamp then begin
        if child' != child then
          if go_left then n.left <- child' else n.right <- child';
        n.n_count <- node_count n.left + node_count n.right;
        n.n_hash <- node_hash n.left lxor node_hash n.right;
        node
      end
      (* A frozen node's children are frozen: identity means unchanged. *)
      else if child' == child then node
      else if go_left then join t.stamp child' n.right
      else join t.stamp n.left child'

let insert t ~key ~point ~digest payload =
  if not (Span.contains t.space t.tspan point) then
    invalid_arg "Merkle.insert: point outside the tree's span";
  let e =
    { e_key = key; e_point = point; e_digest = digest; e_payload = payload }
  in
  let root = insert_at t e (Span.level t.tspan) t.root in
  if root != t.root then t.root <- root

let rec collect node acc =
  match node with
  | Leaf l -> Array.fold_left (fun acc e -> e :: acc) acc l.cells
  | Node n -> collect n.left (collect n.right acc)

(* [node] after dropping [key] beneath it, owned or copied as in
   [insert_at]. A miss returns [node] untouched. *)
let rec remove_at t key point level node =
  match node with
  | Leaf l ->
      let cells = l.cells in
      let i = lower_bound cells key in
      if not (holds cells i key) then node
      else begin
        let n = Array.length cells in
        let shrunk = Array.make (n - 1) cells.(0) in
        Array.blit cells 0 shrunk 0 i;
        Array.blit cells (i + 1) shrunk i (n - 1 - i);
        set_leaf t node ~l_hash:(l.l_hash lxor cells.(i).e_digest) shrunk
      end
  | Node n ->
      let go_left = goes_left t.space level point in
      let child = if go_left then n.left else n.right in
      let before = node_count child in
      let child' = remove_at t key point (level + 1) child in
      if node_count child' = before then node  (* a miss changes nothing *)
      else begin
        let left = if go_left then child' else n.left in
        let right = if go_left then n.right else child' in
        if n.n_count - 1 <= t.cap then begin
          (* Keep the shape canonical: an interior node that no longer
             exceeds the bucket cap collapses back into a leaf. *)
          let members = Array.of_list (collect left (collect right [])) in
          Array.sort by_key members;
          leaf_of t.stamp members
        end
        else if n.n_owner = t.stamp then begin
          if child' != child then
            if go_left then n.left <- child' else n.right <- child';
          n.n_count <- n.n_count - 1;
          n.n_hash <- node_hash left lxor node_hash right;
          node
        end
        else join t.stamp left right
      end

(* The hit is read off the key count: the root's identity no longer
   changes when an owned path is updated in place. *)
let remove t ~key ~point =
  if not (Span.contains t.space t.tspan point) then false
  else begin
    let before = node_count t.root in
    let root = remove_at t key point (Span.level t.tspan) t.root in
    if root != t.root then t.root <- root;
    node_count root < before
  end

let node_frame q node =
  {
    f_span = q;
    f_count = node_count node;
    f_hash = node_hash node;
    f_leaf = is_bucket node;
  }

let frame_at t q =
  if not (Span.overlap t.tspan q) then
    { f_span = q; f_count = 0; f_hash = 0; f_leaf = true }
  else begin
    (* Walk [q]'s path down from the root (an ancestor-or-equal [q]
       stops at once: every held cell lies inside it); a bucket resolves
       any finer query by filtering its members. *)
    let ql = Span.level q and qs = Span.start t.space q in
    let rec go level node =
      if level >= ql then node_frame q node
      else
        match node with
        | Leaf l ->
            let c, h =
              Array.fold_left
                (fun (c, h) e ->
                  if Span.contains t.space q e.e_point then
                    (c + 1, h lxor e.e_digest)
                  else (c, h))
                (0, 0) l.cells
            in
            { f_span = q; f_count = c; f_hash = h; f_leaf = true }
        | Node n ->
            go (level + 1)
              (if goes_left t.space level qs then n.left else n.right)
    in
    go (Span.level t.tspan) t.root
  end

let children t q =
  if Span.level q >= Space.max_level t.space then
    invalid_arg "Merkle.children: span is at the space's max level";
  let a, b = Span.split t.space q in
  (frame_at t a, frame_at t b)

let entries_at t q =
  let acc = ref [] in
  let push e = acc := (e.e_key, e.e_digest, e.e_payload) :: !acc in
  let rec all = function
    | Leaf l -> Array.iter push l.cells
    | Node n ->
        all n.left;
        all n.right
  in
  let ql = Span.level q and qs = Span.start t.space q in
  let rec go level node =
    if level >= ql then all node
    else
      match node with
      | Leaf l ->
          Array.iter
            (fun e -> if Span.contains t.space q e.e_point then push e)
            l.cells
      | Node n ->
          go (level + 1)
            (if goes_left t.space level qs then n.left else n.right)
  in
  if Span.overlap t.tspan q then go (Span.level t.tspan) t.root;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !acc

let range t ~lo ~hi =
  let acc = ref [] in
  let push e = acc := (e.e_key, e.e_payload) :: !acc in
  let rec all = function
    | Leaf l -> Array.iter push l.cells
    | Node n ->
        all n.left;
        all n.right
  in
  let bits = Space.bits t.space in
  (* Prune every subtree disjoint from [lo, hi); take contained ones
     whole; filter only the buckets straddling an endpoint. *)
  let rec go level start node =
    let stop = start + (1 lsl (bits - level)) in
    if stop <= lo || start >= hi then ()
    else if lo <= start && stop <= hi then all node
    else
      match node with
      | Leaf l ->
          Array.iter
            (fun e -> if e.e_point >= lo && e.e_point < hi then push e)
            l.cells
      | Node n ->
          go (level + 1) start n.left;
          go (level + 1) (start + (1 lsl (bits - level - 1))) n.right
  in
  if lo < hi then go (Span.level t.tspan) (Span.start t.space t.tspan) t.root;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let check t =
  let findings = ref [] in
  let bad fmt = Format.kasprintf (fun s -> findings := s :: !findings) fmt in
  let rec go sp node =
    match node with
    | Leaf l ->
        let h =
          Array.fold_left
            (fun acc e ->
              if not (Span.contains t.space sp e.e_point) then
                bad "key %S lies outside its bucket span %a" e.e_key Span.pp sp;
              acc lxor e.e_digest)
            0 l.cells
        in
        if h <> l.l_hash then
          bad "bucket %a cached hash %d, recomputed %d" Span.pp sp l.l_hash h;
        Array.iteri
          (fun i e ->
            if i > 0 && String.compare l.cells.(i - 1).e_key e.e_key >= 0 then
              bad "bucket %a members out of key order at %S" Span.pp sp
                e.e_key)
          l.cells;
        if
          Array.length l.cells > t.cap
          && Span.level sp < Space.max_level t.space
        then
          bad "bucket %a overfull: %d keys > cap %d though splittable" Span.pp
            sp (Array.length l.cells) t.cap
    | Node n ->
        let ch = node_hash n.left lxor node_hash n.right in
        let cc = node_count n.left + node_count n.right in
        if ch <> n.n_hash then
          bad "interior %a hash %d <> left lxor right %d" Span.pp sp n.n_hash ch;
        if cc <> n.n_count then
          bad "interior %a count %d <> children sum %d" Span.pp sp n.n_count cc;
        if n.n_count <= t.cap then
          bad "interior %a holds %d <= cap %d keys: shape not canonical"
            Span.pp sp n.n_count t.cap;
        let a, b = Span.split t.space sp in
        go a n.left;
        go b n.right
  in
  go t.tspan t.root;
  List.rev !findings

let equal t1 t2 =
  Span.equal t1.tspan t2.tspan
  && t1.cap = t2.cap
  &&
  let rec eq n1 n2 =
    n1 == n2
    ||
    match (n1, n2) with
    | Leaf a, Leaf b ->
        a.l_hash = b.l_hash
        && Array.length a.cells = Array.length b.cells
        && Array.for_all2
             (fun e e' ->
               String.equal e.e_key e'.e_key && e.e_digest = e'.e_digest)
             a.cells b.cells
    | Node a, Node b ->
        a.n_count = b.n_count && a.n_hash = b.n_hash && eq a.left b.left
        && eq a.right b.right
    | _ -> false
  in
  eq t1.root t2.root
