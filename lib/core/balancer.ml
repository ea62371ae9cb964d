open Dht_hashspace

type event =
  | Split of { vnode : Vnode.t; before : Span.t }
  | Transfer of { src : Vnode.t; dst : Vnode.t; span : Span.t }

type t = {
  params : Params.t;
  group : Group_id.t;
  notify : event -> unit;
  mutable level : int;
  mutable vnodes : Vnode.t array;
  mutable nv : int;  (* used prefix of [vnodes] *)
  buckets : Vnode.t list array;  (* buckets.(c) = vnodes holding c partitions *)
  mutable max_count : int;  (* largest c with buckets.(c) non-empty *)
  mutable total : int;  (* Pg, the group's partition total *)
}

let params t = t.params
let group t = t.group
let level t = t.level
let vnode_count t = t.nv
let total_partitions t = t.total
let vnodes t = Array.sub t.vnodes 0 t.nv

let iter_vnodes t f =
  for i = 0 to t.nv - 1 do
    f t.vnodes.(i)
  done
let counts t = Array.map (fun v -> v.Vnode.count) (vnodes t)
let quota t = ldexp (float_of_int t.total) (-t.level)

let move_decreases_sigma ~from_count ~to_count =
  (* Moving one partition keeps the total (hence the mean) unchanged, so
     σ(Pv) decreases iff Σ Pv² does. The move changes Σ Pv² by
     (a-1)² + (b+1)² - a² - b² = 2(b - a + 1), negative iff b < a - 1. *)
  to_count < from_count - 1

let push_vnode t v =
  if t.nv = Array.length t.vnodes then begin
    let bigger = Array.make (max 8 (2 * t.nv)) v in
    Array.blit t.vnodes 0 bigger 0 t.nv;
    t.vnodes <- bigger
  end;
  t.vnodes.(t.nv) <- v;
  t.nv <- t.nv + 1

let bucket_add t v =
  let c = v.Vnode.count in
  t.buckets.(c) <- v :: t.buckets.(c);
  if c > t.max_count then t.max_count <- c

(* Lower max_count to the largest non-empty bucket. *)
let refresh_max t =
  while t.max_count > 0 && t.buckets.(t.max_count) = [] do
    t.max_count <- t.max_count - 1
  done

let rebuild_buckets t =
  Array.fill t.buckets 0 (Array.length t.buckets) [];
  t.max_count <- 0;
  for i = 0 to t.nv - 1 do
    bucket_add t t.vnodes.(i)
  done

let make_empty ~params ~group ~level ~notify =
  {
    params;
    group;
    notify;
    level;
    vnodes = [||];
    nv = 0;
    buckets = Array.make (Params.pmax params + 1) [];
    max_count = 0;
    total = 0;
  }

let bootstrap ~params ~group ~vnode ~notify =
  if vnode.Vnode.count <> 0 then
    invalid_arg "Balancer.bootstrap: vnode already owns partitions";
  let space = params.Params.space in
  let pmin = params.Params.pmin in
  let level = Params.log2_exact pmin in
  let t = make_empty ~params ~group ~level ~notify in
  vnode.Vnode.group <- group;
  for i = 0 to pmin - 1 do
    Vnode.add_span vnode (Span.make space ~level ~index:i)
  done;
  push_vnode t vnode;
  bucket_add t vnode;
  t.total <- pmin;
  t

let of_vnodes ~params ~group ~level ~notify members =
  if Array.length members = 0 then invalid_arg "Balancer.of_vnodes: no vnodes";
  let pmin = params.Params.pmin and pmax = Params.pmax params in
  let t = make_empty ~params ~group ~level ~notify in
  Array.iter
    (fun v ->
      if v.Vnode.count < pmin || v.Vnode.count > pmax then
        invalid_arg "Balancer.of_vnodes: vnode count outside [Pmin, Pmax]";
      assert (List.for_all (fun s -> Span.level s = level) v.Vnode.spans);
      v.Vnode.group <- group;
      push_vnode t v;
      bucket_add t v;
      t.total <- t.total + v.Vnode.count)
    members;
  t

(* Invariant-G4 escape hatch (§2.5): when every vnode is at Pmin, nobody can
   donate, so all vnodes binary-split their partitions, doubling to Pmax. *)
let split_all t =
  let space = t.params.Params.space in
  if t.level >= Space.max_level space then
    failwith "Balancer: hash space exhausted (level = Bh)";
  Log.L.debug (fun m ->
      m "group %a: split-all, level %d -> %d (Vg=%d)" Group_id.pp t.group
        t.level (t.level + 1) t.nv);
  for i = 0 to t.nv - 1 do
    let v = t.vnodes.(i) in
    Vnode.split_spans space v ~previous:(fun s ->
        t.notify (Split { vnode = v; before = s }))
  done;
  t.level <- t.level + 1;
  t.total <- 2 * t.total;
  rebuild_buckets t

let bucket_remove t v =
  let c = v.Vnode.count in
  t.buckets.(c) <- List.filter (fun w -> w != v) t.buckets.(c)

let member t v =
  let rec scan i = i < t.nv && (t.vnodes.(i) == v || scan (i + 1)) in
  scan 0

(* Least-loaded member, scanning buckets upward (counts are bounded by Pmax,
   so this is O(Pmax) worst case). *)
let min_count_vnode t =
  let rec scan c =
    if c >= Array.length t.buckets then None
    else
      match t.buckets.(c) with v :: _ -> Some v | [] -> scan (c + 1)
  in
  scan 0

(* Move one (arbitrary) partition from [src] to [dst], keeping buckets in
   sync and notifying. *)
let move_one t ~src ~dst =
  bucket_remove t src;
  bucket_remove t dst;
  let span = Vnode.take_span src in
  Vnode.add_span dst span;
  bucket_add t src;
  bucket_add t dst;
  t.notify (Transfer { src; dst; span })

(* Max→min transfers while they decrease σ(Pv): ends with every count within
   one partition of the mean. *)
let equalize t =
  let continue = ref true in
  while !continue do
    refresh_max t;
    match min_count_vnode t with
    | None -> continue := false
    | Some min_v ->
        if
          move_decreases_sigma ~from_count:t.max_count
            ~to_count:min_v.Vnode.count
        then begin
          match t.buckets.(t.max_count) with
          | [] -> assert false
          | src :: _ ->
              (* Counts differ by at least 2, so src cannot be min_v. *)
              assert (src != min_v);
              move_one t ~src ~dst:min_v
        end
        else continue := false
  done

let remove_vnode t v =
  if not (member t v) then
    invalid_arg "Balancer.remove_vnode: vnode is not a member of this group";
  if t.nv = 1 then Error `Last_vnode
  else if t.total > (t.nv - 1) * Params.pmax t.params then
    Error `Insufficient_capacity
  else begin
    Log.L.debug (fun m ->
        m "group %a: vnode %a leaving with %d partitions" Group_id.pp t.group
          Vnode_id.pp v.Vnode.id v.Vnode.count);
    (* Detach the departing vnode from the structures first so it cannot be
       selected as a transfer destination. *)
    bucket_remove t v;
    let rec index i = if t.vnodes.(i) == v then i else index (i + 1) in
    let idx = index 0 in
    Array.blit t.vnodes (idx + 1) t.vnodes idx (t.nv - idx - 1);
    t.nv <- t.nv - 1;
    (* Hand every partition to the currently least-loaded survivor. The
       capacity check guarantees a receiver below Pmax exists while any
       partition is left. *)
    while v.Vnode.count > 0 do
      match min_count_vnode t with
      | None -> assert false
      | Some dst ->
          assert (dst.Vnode.count < Params.pmax t.params);
          bucket_remove t dst;
          let span = Vnode.take_span v in
          Vnode.add_span dst span;
          bucket_add t dst;
          t.notify (Transfer { src = v; dst; span })
    done;
    equalize t;
    Ok ()
  end

let transfer_span t ~src ~dst span =
  if not (member t src && member t dst) then Error `Not_member
  else if src.Vnode.count <= t.params.Params.pmin then Error `Src_at_pmin
  else if dst.Vnode.count >= Params.pmax t.params then Error `Dst_at_pmax
  else begin
    bucket_remove t src;
    bucket_remove t dst;
    if Vnode.remove_span src span then begin
      Vnode.add_span dst span;
      bucket_add t src;
      bucket_add t dst;
      t.notify (Transfer { src; dst; span });
      Ok ()
    end
    else begin
      (* Restore the buckets untouched. *)
      bucket_add t src;
      bucket_add t dst;
      Error `Not_owner
    end
  end

let add_vnode t newcomer =
  if newcomer.Vnode.count <> 0 then
    invalid_arg "Balancer.add_vnode: vnode already owns partitions";
  refresh_max t;
  if t.max_count = t.params.Params.pmin then split_all t;
  newcomer.Vnode.group <- t.group;
  push_vnode t newcomer;
  let rec settle () =
    refresh_max t;
    if move_decreases_sigma ~from_count:t.max_count ~to_count:newcomer.Vnode.count
    then begin
      match t.buckets.(t.max_count) with
      | [] -> assert false (* refresh_max guarantees non-empty *)
      | victim :: rest ->
          t.buckets.(t.max_count) <- rest;
          let span = Vnode.take_span victim in
          Vnode.add_span newcomer span;
          t.notify (Transfer { src = victim; dst = newcomer; span });
          t.buckets.(victim.Vnode.count) <-
            victim :: t.buckets.(victim.Vnode.count);
          settle ()
    end
  in
  settle ();
  bucket_add t newcomer;
  (* G4': every vnode, including the newcomer, ends within [Pmin, Pmax]. *)
  assert (newcomer.Vnode.count >= t.params.Params.pmin);
  assert (newcomer.Vnode.count <= Params.pmax t.params)
