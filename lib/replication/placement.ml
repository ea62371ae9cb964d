(* Replica placement over the snode ring.

   Snodes are numbered 0 .. n-1 and treated as a ring ordered by id. The
   replica set of a partition starts at the snode hosting its owner vnode
   and walks the ring; snodes that host members of the owner's group are
   skipped on the first pass (a group is the paper's failure-correlated
   unit: its members already share protocol state, so spreading copies
   across groups survives a group-wide outage) and only used to fill the
   set when the cluster has too few out-of-group snodes. *)

let norm ~n s = ((s mod n) + n) mod n

let replicas ~rfactor ~n ~primary ~group_snodes =
  if n <= 0 then invalid_arg "Placement.replicas: empty cluster";
  if rfactor <= 0 then invalid_arg "Placement.replicas: rfactor must be >= 1";
  let primary = norm ~n primary in
  let in_group s = List.exists (fun g -> norm ~n g = s) group_snodes in
  (* Walk the ring from the primary's successor and keep the first [k]
     snodes that [keep] accepts, consed onto [acc] (so reversed). Returns
     how many are still missing. *)
  let rec walk keep i k acc =
    if k = 0 || i >= n then (k, acc)
    else
      let s = (primary + i) mod n in
      if keep s then walk keep (i + 1) (k - 1) (s :: acc)
      else walk keep (i + 1) k acc
  in
  let short, picked = walk (fun s -> not (in_group s)) 1 (min rfactor n - 1) [] in
  (* Too few out-of-group snodes: the first pass walked the whole ring, so
     [picked] holds all of them; backfill in-group snodes in ring order. *)
  let picked = if short = 0 then picked else snd (walk in_group 1 short picked) in
  primary :: List.rev picked

let successor ~n ~avoid ~start =
  if n <= 0 then invalid_arg "Placement.successor: empty cluster";
  let start = norm ~n start in
  let avoided s = List.exists (fun a -> norm ~n a = s) avoid in
  let rec go i =
    if i >= n then None
    else
      let s = (start + i) mod n in
      if avoided s then go (i + 1) else Some s
  in
  go 1
