(* Load directories in the style of Scalaris's lb_active_directories
   (Godfrey et al.'s many-to-many scheme): a small, hash-located set of
   snodes collects per-snode load reports, classifies reporters into
   light/heavy against the cluster-average heat, and pairs the heaviest
   with the lightest to propose transfers. Directory state is a plain
   report table — the runtime owns messaging and the transfer itself. *)

type t = {
  reports : (int, Summary.t) Hashtbl.t;
  (* Per-origin stamp of the last proposal this directory issued toward
     or about the origin — the emergency path's rate limit. *)
  proposed : (int, float) Hashtbl.t;
}

let create () = { reports = Hashtbl.create 16; proposed = Hashtbl.create 8 }

(* Version-fenced install, like the gossip view: directories may hear the
   same origin through delayed reports. *)
let note t (s : Summary.t) =
  match Hashtbl.find_opt t.reports s.Summary.origin with
  | Some cur when not (Summary.fresher s cur) -> false
  | Some _ | None ->
      Hashtbl.replace t.reports s.Summary.origin s;
      true

let report_count t = Hashtbl.length t.reports
let reset t =
  Hashtbl.reset t.reports;
  Hashtbl.reset t.proposed

(* Directory placement: [count] distinct snodes chosen by hashing the
   directory index — a pure function of the cluster size, so every snode
   locates the same directories without coordination. *)
let locate ~snodes ~count =
  let count = min count snodes in
  let chosen = Hashtbl.create count in
  let rec place k acc =
    if k = count then List.rev acc
    else
      let rec probe h =
        let sid = h mod snodes in
        if Hashtbl.mem chosen sid then probe (h + 1) else sid
      in
      let sid = probe (Hashtbl.hash ("lb.directory", k)) in
      Hashtbl.add chosen sid ();
      place (k + 1) (sid :: acc)
  in
  place 0 []

(* The directory snode [origin] reports to: origins spread round-robin
   over the directory set, again without coordination. *)
let directory_for ~snodes ~count ~origin =
  let dirs = locate ~snodes ~count in
  List.nth dirs (origin mod List.length dirs)

let average t =
  let n = Hashtbl.length t.reports in
  if n = 0 then 0.
  else
    Hashtbl.fold (fun _ s acc -> acc +. s.Summary.heat) t.reports 0.
    /. float_of_int n

(* Light/heavy split against the cluster average. Heavies descending by
   heat (hottest first), lights ascending — [pair] zips them so the most
   loaded snode sheds toward the least loaded one. A heavy must own at
   least two partitions: a transfer is a one-for-one partition swap, so a
   single-partition snode would just trade its hot spot around. *)
let classify t (p : Policy.t) =
  let avg = average t in
  if avg <= 0. then ([], [])
  else
    let light, heavy =
      Hashtbl.fold
        (fun _ s (l, h) ->
          if s.Summary.heat > p.Policy.heavy_ratio *. avg && s.Summary.partitions > 1
          then (l, s :: h)
          else if s.Summary.heat < p.Policy.light_ratio *. avg then (s :: l, h)
          else (l, h))
        t.reports ([], [])
    in
    let by_heat a b = compare a.Summary.heat b.Summary.heat in
    ( List.sort
        (fun a b ->
          match by_heat a b with
          | 0 -> compare a.Summary.origin b.Summary.origin
          | c -> c)
        light,
      List.sort
        (fun a b ->
          match by_heat b a with
          | 0 -> compare a.Summary.origin b.Summary.origin
          | c -> c)
        heavy )

(* Many-to-many pairing: k-th heaviest sheds to k-th lightest. *)
let pair ~light ~heavy =
  let rec zip acc = function
    | h :: hs, l :: ls -> zip ((h, l) :: acc) (hs, ls)
    | _ -> List.rev acc
  in
  zip [] (heavy, light)

(* Emergency: a report so far above the average that waiting for the next
   balance round risks saturation. Needs at least two reports (a lone
   report is trivially "the average"). *)
let emergency t (p : Policy.t) (s : Summary.t) =
  let avg = average t in
  report_count t >= 2 && avg > 0. && s.Summary.partitions > 1
  && s.Summary.heat >= p.Policy.emergency_factor *. avg

(* Lightest reporter other than [origin]; the emergency transfer's
   destination. *)
let lightest_except t ~origin =
  Hashtbl.fold
    (fun o s best ->
      if o = origin then best
      else
        match best with
        | Some b
          when b.Summary.heat < s.Summary.heat
               || (b.Summary.heat = s.Summary.heat
                   && b.Summary.origin < s.Summary.origin) ->
            best
        | _ -> Some s)
    t.reports None

(* Rate limit on proposals about [origin]: at most one per [min_spacing]
   of virtual time. Advances the stamp when it admits. *)
let admit_proposal t (p : Policy.t) ~origin ~now =
  let ok =
    match Hashtbl.find_opt t.proposed origin with
    | Some last -> now -. last >= p.Policy.min_spacing
    | None -> true
  in
  if ok then Hashtbl.replace t.proposed origin now;
  ok
