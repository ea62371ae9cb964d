(* A mutable binary trie over the dyadic structure of the hash space.

   Every span is a dyadic cell — level [l], index [i] — so the set of
   registered spans embeds naturally in the binary tree whose node at depth
   [d] is the level-[d] cell reached by reading the top [d] bits of a hash
   index. A registered span is a [Leaf] at depth [level]; interior [Fork]
   nodes carry no binding. Lookups walk at most [level]-of-the-answer
   steps, and every update mutates the trie in place: the hot placement
   paths (routing-cache and replica-map learns during creation storms)
   allocate only the handful of nodes they actually create, instead of
   rebuilding the spine of a persistent map per eviction and re-insert. *)

type 'a node =
  | Empty
  | Leaf of { mutable v : 'a }
  | Fork of { mutable lo : 'a node; mutable hi : 'a node }

type 'a t = { space : Space.t; mutable root : 'a node; mutable card : int }

let create space = { space; root = Empty; card = 0 }
let space t = t.space
let cardinal t = t.card

(* Bit of [idx] selecting the child at depth [d] on the way to a depth-[lvl]
   cell: the bits of a span index are read most-significant first. *)
let branch ~lvl ~idx d = (idx lsr (lvl - 1 - d)) land 1 [@@inline]

let add t span v =
  let lvl = Span.level span and idx = Span.index span in
  let rec go node d =
    if d = lvl then
      match node with
      | Empty -> Leaf { v }
      | Leaf _ | Fork _ -> invalid_arg "Point_map.add: overlapping span"
    else
      match node with
      | Leaf _ -> invalid_arg "Point_map.add: overlapping span"
      | Fork f ->
          (if branch ~lvl ~idx d = 0 then f.lo <- go f.lo (d + 1)
           else f.hi <- go f.hi (d + 1));
          node
      | Empty ->
          let child = go Empty (d + 1) in
          if branch ~lvl ~idx d = 0 then Fork { lo = child; hi = Empty }
          else Fork { lo = Empty; hi = child }
  in
  let root = go t.root 0 in
  t.root <- root;
  t.card <- t.card + 1

let remove t span =
  let lvl = Span.level span and idx = Span.index span in
  let rec go node d =
    match node with
    | Empty -> raise Not_found
    | Leaf _ -> if d = lvl then Empty else raise Not_found
    | Fork f ->
        if d = lvl then raise Not_found
        else begin
          (if branch ~lvl ~idx d = 0 then f.lo <- go f.lo (d + 1)
           else f.hi <- go f.hi (d + 1));
          (* Prune forks left over both-empty so stale paths do not linger. *)
          match (f.lo, f.hi) with Empty, Empty -> Empty | _ -> node
        end
  in
  let root = go t.root 0 in
  t.root <- root;
  t.card <- t.card - 1

let find_point t p =
  if not (Space.contains t.space p) then
    invalid_arg "Point_map.find_point: point outside space";
  let bits = Space.bits t.space in
  let rec go node d idx =
    match node with
    | Empty -> raise Not_found
    | Leaf l -> (Span.make t.space ~level:d ~index:idx, l.v)
    | Fork f ->
        let bit = (p lsr (bits - 1 - d)) land 1 in
        go (if bit = 0 then f.lo else f.hi) (d + 1) ((idx lsl 1) lor bit)
  in
  go t.root 0 0

(* Raw probe for the per-hop routing path: the owner alone, with no
   [Span.make] record and no result tuple. [find_point] costs two
   allocations per probe; at cluster scale every forwarded hop pays one,
   so the hot path walks the trie and returns the leaf's value direct.
   The walks are top-level functions rather than local closures over [p]
   and [bits]: without flambda such a closure is allocated per call. *)
let rec owner_walk p bits node d =
  match node with
  | Empty -> raise Not_found
  | Leaf l -> l.v
  | Fork f ->
      owner_walk p bits
        (if (p lsr (bits - 1 - d)) land 1 = 0 then f.lo else f.hi)
        (d + 1)

let find_owner_exn t p =
  if not (Space.contains t.space p) then
    invalid_arg "Point_map.find_owner_exn: point outside space";
  owner_walk p (Space.bits t.space) t.root 0

(* Depth (= span level) of the leaf covering [p], as a bare int — the
   routing layer's fine-vs-coarse test, allocation-free like the raw
   probe above. *)
let rec depth_walk p bits node d =
  match node with
  | Empty -> raise Not_found
  | Leaf _ -> d
  | Fork f ->
      depth_walk p bits
        (if (p lsr (bits - 1 - d)) land 1 = 0 then f.lo else f.hi)
        (d + 1)

let probe_depth t p =
  if not (Space.contains t.space p) then
    invalid_arg "Point_map.probe_depth: point outside space";
  depth_walk p (Space.bits t.space) t.root 0

let replace_owner t span v =
  let lvl = Span.level span and idx = Span.index span in
  let rec go node d =
    match node with
    | Leaf l when d = lvl -> l.v <- v
    | Fork f when d < lvl ->
        go (if branch ~lvl ~idx d = 0 then f.lo else f.hi) (d + 1)
    | Empty | Leaf _ | Fork _ -> raise Not_found
  in
  go t.root 0

let split t span =
  let lvl = Span.level span and idx = Span.index span in
  (* Validates that the span is splittable at all (not at max level). *)
  ignore (Span.split t.space span);
  let rec go node d =
    match node with
    | Leaf l when d = lvl -> Fork { lo = Leaf { v = l.v }; hi = Leaf { v = l.v } }
    | Fork f when d < lvl ->
        (if branch ~lvl ~idx d = 0 then f.lo <- go f.lo (d + 1)
         else f.hi <- go f.hi (d + 1));
        node
    | Empty | Leaf _ | Fork _ -> raise Not_found
  in
  let root = go t.root 0 in
  t.root <- root;
  t.card <- t.card + 1

(* In-order collection of every leaf in [node] (rooted at depth [d], index
   [idx]), consed in front of [acc] in decreasing start order — so folding
   hi-then-lo yields an increasing-start list. *)
let rec leaves t node d idx acc =
  match node with
  | Empty -> acc
  | Leaf l -> (Span.make t.space ~level:d ~index:idx, l.v) :: acc
  | Fork f ->
      leaves t f.lo (d + 1) (idx lsl 1)
        (leaves t f.hi (d + 1) ((idx lsl 1) lor 1) acc)

let overlapping t span =
  let lvl = Span.level span and idx = Span.index span in
  let rec go node d =
    match node with
    | Empty -> []
    | Leaf l ->
        (* A registered span at or above [span]'s depth contains it. *)
        [ (Span.make t.space ~level:d ~index:(idx lsr (lvl - d)), l.v) ]
    | Fork f ->
        if d = lvl then leaves t node d idx []
        else go (if branch ~lvl ~idx d = 0 then f.lo else f.hi) (d + 1)
  in
  go t.root 0

(* Learn [span -> v] in one pass: every registered span inside [span] is
   evicted, and a coarser span met on the way down is pushed below [span]'s
   level — the sibling fragment at each step keeps the old owner, which is
   exactly the dyadic path decomposition the routing cache needs to evict a
   stale entry without ever leaving a hole. *)
let learn t span v =
  let lvl = Span.level span and idx = Span.index span in
  let rec count node =
    match node with
    | Empty -> 0
    | Leaf _ -> 1
    | Fork f -> count f.lo + count f.hi
  in
  let rec go node d =
    if d = lvl then begin
      t.card <- t.card - count node + 1;
      match node with
      | Leaf l ->
          (* Reuse the slot: the common case is refreshing one span. *)
          l.v <- v;
          node
      | Empty | Fork _ -> Leaf { v }
    end
    else
      match node with
      | Fork f ->
          (if branch ~lvl ~idx d = 0 then f.lo <- go f.lo (d + 1)
           else f.hi <- go f.hi (d + 1));
          node
      | Empty ->
          let child = go Empty (d + 1) in
          if branch ~lvl ~idx d = 0 then Fork { lo = child; hi = Empty }
          else Fork { lo = Empty; hi = child }
      | Leaf l ->
          (* Coarser entry: keep its owner on the sibling fragment and push
             the entry itself one level closer to [span]. *)
          t.card <- t.card + 1;
          let sib = Leaf { v = l.v } in
          if branch ~lvl ~idx d = 0 then
            Fork { lo = go node (d + 1); hi = sib }
          else Fork { lo = sib; hi = go node (d + 1) }
  in
  let root = go t.root 0 in
  t.root <- root

(* Every [Fork] whose two children are both leaves, reported as the parent
   span plus the two child values (lo then hi). Such a pair always exists
   in a non-trivial map: a deepest leaf's sibling cannot be a fork (it
   would hold a deeper leaf) nor empty (disjoint dyadic spans never leave
   a both-empty fork behind under [add]/[learn]; [remove] prunes them).
   Replacing the pair by one parent-level binding ([learn] at the parent
   span) shrinks the cardinality by one without opening a hole — the
   bounded routing cache's eviction step. *)
let iter_pairs t f =
  let rec go node d idx =
    match node with
    | Empty | Leaf _ -> ()
    | Fork { lo = Leaf a; hi = Leaf b } ->
        f (Span.make t.space ~level:d ~index:idx) a.v b.v
    | Fork fk ->
        go fk.lo (d + 1) (idx lsl 1);
        go fk.hi (d + 1) ((idx lsl 1) lor 1)
  in
  go t.root 0 0

let iter t f =
  let rec go node d idx =
    match node with
    | Empty -> ()
    | Leaf l -> f (Span.make t.space ~level:d ~index:idx) l.v
    | Fork fk ->
        go fk.lo (d + 1) (idx lsl 1);
        go fk.hi (d + 1) ((idx lsl 1) lor 1)
  in
  go t.root 0 0

let to_list t = leaves t t.root 0 0 []
let spans t = List.map fst (to_list t)
