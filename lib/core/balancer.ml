open Dht_hashspace

type event =
  | Split of { vnode : Vnode.t; before : Span.t }
  | Transfer of { src : Vnode.t; dst : Vnode.t; span : Span.t }

type t = {
  params : Params.t;
  group : Group_id.t;
  notify : event -> unit;
  mutable level : int;
  mutable vnodes : Vnode.t array;  (* used prefix sorted by vnode id *)
  mutable nv : int;  (* used prefix of [vnodes] *)
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

let lpdr t =
  let acc = ref [] in
  for i = t.nv - 1 downto 0 do
    let v = t.vnodes.(i) in
    acc := (v.Vnode.id, v.Vnode.count) :: !acc
  done;
  !acc

(* Index of the first member whose id is not below [id]. *)
let position t id =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Vnode_id.compare t.vnodes.(mid).Vnode.id id < 0 then
        search (mid + 1) hi
      else search lo mid
  in
  search 0 t.nv

let find_exn t id =
  let i = position t id in
  assert (i < t.nv && Vnode_id.equal t.vnodes.(i).Vnode.id id);
  t.vnodes.(i)

let member t v =
  let i = position t v.Vnode.id in
  i < t.nv && t.vnodes.(i) == v

let insert t v =
  let i = position t v.Vnode.id in
  if t.nv = Array.length t.vnodes then begin
    let bigger = Array.make (max 8 (2 * t.nv)) v in
    Array.blit t.vnodes 0 bigger 0 t.nv;
    t.vnodes <- bigger
  end;
  Array.blit t.vnodes i t.vnodes (i + 1) (t.nv - i);
  t.vnodes.(i) <- v;
  t.nv <- t.nv + 1

let make_empty ~params ~group ~level ~notify =
  { params; group; notify; level; vnodes = [||]; nv = 0; total = 0 }

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
  insert t vnode;
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
      insert t v;
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
  t.total <- 2 * t.total

(* Move [n] (arbitrary) partitions from [src] to [dst], notifying each. *)
let move t ~src ~dst n =
  for _ = 1 to n do
    let span = Vnode.take_span src in
    Vnode.add_span dst span;
    t.notify (Transfer { src; dst; span })
  done

let add_vnode t newcomer =
  if newcomer.Vnode.count <> 0 then
    invalid_arg "Balancer.add_vnode: vnode already owns partitions";
  let plan =
    Plan.creation ~pmin:t.params.Params.pmin ~counts:(lpdr t)
      ~newcomer:newcomer.Vnode.id
  in
  if plan.Plan.split_all then split_all t;
  newcomer.Vnode.group <- t.group;
  (* Donors come in id order, like the members; the plan hands back the
     very id values it was given. *)
  let i = ref 0 in
  List.iter
    (fun { Plan.donor; give } ->
      while t.vnodes.(!i).Vnode.id != donor do
        incr i
      done;
      move t ~src:t.vnodes.(!i) ~dst:newcomer give)
    plan.Plan.assignments;
  insert t newcomer;
  (* G4': every vnode, including the newcomer, ends within [Pmin, Pmax]. *)
  assert (newcomer.Vnode.count >= t.params.Params.pmin);
  assert (newcomer.Vnode.count <= Params.pmax t.params)

let remove_vnode t v =
  if not (member t v) then
    invalid_arg "Balancer.remove_vnode: vnode is not a member of this group";
  match
    Plan.removal ~pmin:t.params.Params.pmin ~counts:(lpdr t)
      ~leaving:v.Vnode.id
  with
  | Error _ as e -> e
  | Ok plan ->
      Log.L.debug (fun m ->
          m "group %a: vnode %a leaving with %d partitions" Group_id.pp t.group
            Vnode_id.pp v.Vnode.id v.Vnode.count);
      List.iter
        (fun { Plan.src; dst; n } ->
          move t ~src:(find_exn t src) ~dst:(find_exn t dst) n)
        plan.Plan.moves;
      let i = position t v.Vnode.id in
      Array.blit t.vnodes (i + 1) t.vnodes i (t.nv - i - 1);
      t.nv <- t.nv - 1;
      Ok ()
