type version = { ts : float; seq : int; origin : int }
type cell = { value : string; version : version }

let compare_version a b =
  match Float.compare a.ts b.ts with
  | 0 -> (
      match Int.compare a.seq b.seq with
      | 0 -> Int.compare a.origin b.origin
      | c -> c)
  | c -> c

let newer a b = compare_version a b > 0
let cell ~value ~ts ?(seq = 0) ~origin () =
  { value; version = { ts; seq; origin } }

(* Last-writer-wins, biased to the incumbent on exact ties so that a merge
   is a no-op unless the incoming cell is strictly fresher. *)
let merge ~mine ~theirs = if newer theirs.version mine.version then theirs else mine

let merge_opt mine theirs =
  match mine with None -> theirs | Some m -> merge ~mine:m ~theirs

let digest key c =
  Hashtbl.hash (key, c.version.ts, c.version.seq, c.version.origin, c.value)

let size_bytes c = String.length c.value + 24
