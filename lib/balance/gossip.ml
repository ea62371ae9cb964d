(* A push-pull gossip view: the freshest load summary this observer has
   seen per origin. Merges are version-fenced so a delayed or reordered
   gossip message can never roll an entry back — the property the
   convergence tests pin. The view itself is soft state: it dies with a
   crash (reset) while the origins' version counters (kept by the runtime)
   are durable, so post-restart summaries still supersede pre-crash ones
   everywhere. *)

type t = { entries : (int, Summary.t) Hashtbl.t }

let create () = { entries = Hashtbl.create 16 }

let note t (s : Summary.t) =
  match Hashtbl.find_opt t.entries s.Summary.origin with
  | Some cur when not (Summary.fresher s cur) -> false
  | Some _ | None ->
      Hashtbl.replace t.entries s.Summary.origin s;
      true

let merge t entries =
  List.fold_left (fun acc s -> if note t s then acc + 1 else acc) 0 entries

let find t origin = Hashtbl.find_opt t.entries origin

(* Deterministic export: sorted by origin, so gossip payloads and test
   snapshots do not depend on hash-table iteration order. *)
let entries t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.entries []
  |> List.sort (fun a b -> compare a.Summary.origin b.Summary.origin)

let reset t = Hashtbl.reset t.entries

(* Staleness of the view against ground truth [version_of origin]: the
   largest version gap over the origins the observer knows about, plus
   [max_int] signalled as a missing origin count. Used by the convergence
   property: after the rounds settle every live observer must be within
   one round of every live origin. *)
let staleness t ~origins ~version_of =
  List.fold_left
    (fun (missing, lag) origin ->
      match find t origin with
      | None -> (missing + 1, lag)
      | Some s -> (missing, max lag (version_of origin - s.Summary.version)))
    (0, 0) origins
