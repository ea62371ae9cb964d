(* The operation-history recorder. A differential property feeds random
   Oplog event streams both to the columnar recorder and to a reference
   fold (the Hashtbl-of-records recorder it replaced, kept below
   verbatim) and requires identical entries and per-key groups, each
   group's entries sharing one key string. Two guards
   bound the recorder's live heap per recorded operation, with shared and
   with fresh key strings. *)

module Runtime = Dht_snode.Runtime
module Oplog = Runtime.Oplog
module H = Dht_check.History

(* One mutable cell per token in a Hashtbl, its entry rebuilt on every
   outcome event. *)
module Reference = struct
  open H

  type cell = { mutable e : entry }

  type t = {
    tbl : (int, cell) Hashtbl.t;
    mutable order : int list;  (* invoke order, newest first *)
  }

  let create () = { tbl = Hashtbl.create 64; order = [] }

  let feed t (ev : Runtime.Oplog.event) =
    match ev with
    | Invoke { token; via; op; at } ->
        let op =
          match op with
          | Runtime.Oplog.Op_put { key; value } -> Put { key; value }
          | Runtime.Oplog.Op_get { key } -> Get { key; result = None }
        in
        let e =
          {
            token;
            session = via;
            op;
            inv = at;
            ret = None;
            failed = false;
            shed = false;
          }
        in
        Hashtbl.replace t.tbl token { e };
        t.order <- token :: t.order
    | Ack { token; at } -> (
        match Hashtbl.find_opt t.tbl token with
        | Some c -> c.e <- { c.e with ret = Some at }
        | None -> ())
    | Reply { token; value; at } -> (
        match Hashtbl.find_opt t.tbl token with
        | Some c ->
            let op =
              match c.e.op with
              | Get { key; _ } -> Get { key; result = value }
              | Put _ as p -> p
            in
            c.e <- { c.e with ret = Some at; op }
        | None -> ())
    | Fail { token; at = _ } -> (
        match Hashtbl.find_opt t.tbl token with
        | Some c -> c.e <- { c.e with failed = true }
        | None -> ())
    | Busy { token; at = _ } -> (
        (* Shed by admission control: failed, and additionally guaranteed
           to have had no effect anywhere. *)
        match Hashtbl.find_opt t.tbl token with
        | Some c -> c.e <- { c.e with failed = true; shed = true }
        | None -> ())

  let entries t =
    List.rev_map (fun token -> (Hashtbl.find t.tbl token).e) t.order

  let by_key es =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun e ->
        let k = key e in
        Hashtbl.replace tbl k (e :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
      es;
    Hashtbl.fold (fun k es acc -> (k, List.rev es) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

(* ------------------------------------------------------------------ *)
(* Random event streams                                                 *)

(* A copy of [k] that shares no block with it. *)
let fresh k = Bytes.to_string (Bytes.of_string k)

(* Unique Invoke tokens: increasing from a random start with gaps (the
   tokens range reads and removes take without an Invoke, in a third of
   the streams as often as every other row), in a third of the streams
   now and then jumping far ahead, and in a quarter of them shuffled. In
   a quarter of the rest a token now and then falls below the last one:
   two neighbours swap, or the token is negative. Every Invoke carries a
   fresh copy of its key, as a client that builds its keys per operation
   does; in a third of the streams the keys come from 2,000 instead of 8,
   so the history's key table grows and its probes collide. Sessions are
   small, or range up to 2^22 (past the 21 bits a row packs), or are
   negative. Between invocations come outcomes
   on invoked tokens (any kind on any op: Reply on a put, Reply None,
   repeated outcomes) and on tokens never or not yet invoked. A third of
   the streams hold more rows than one storage chunk. *)
let gen_stream st =
  let rows =
    if Random.State.int st 3 = 0 then 4_000 + Random.State.int st 6_000
    else Random.State.int st 60
  in
  let tokens = Array.make rows 0 in
  let next = ref (Random.State.int st 1_000) in
  let jumps = Random.State.int st 3 = 0 in
  let gappy = if Random.State.int st 3 = 0 then 25 else 10 in
  for i = 0 to rows - 1 do
    tokens.(i) <- !next;
    let gap =
      match Random.State.int st 50 with
      | 0 when jumps -> 100_000 + Random.State.int st 100_000
      | n when n < gappy -> 2 + Random.State.int st 3
      | _ -> 1
    in
    next := !next + gap
  done;
  (match Random.State.int st 4 with
  | 0 ->
      for i = rows - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = tokens.(i) in
        tokens.(i) <- tokens.(j);
        tokens.(j) <- x
      done
  | 1 ->
      for i = 1 to rows - 1 do
        match Random.State.int st 40 with
        | 0 ->
            let x = tokens.(i) in
            tokens.(i) <- tokens.(i - 1);
            tokens.(i - 1) <- x
        | 1 -> tokens.(i) <- -1_000_000 - i
        | _ -> ()
      done
  | _ -> ());
  let clock = ref 0. in
  let at () =
    clock := !clock +. Random.State.float st 1.;
    !clock
  in
  let keys = Array.init (if Random.State.int st 3 = 0 then 2_000 else 8) (Printf.sprintf "k%d") in
  let session =
    match Random.State.int st 4 with
    | 0 -> fun () -> Random.State.int st ((1 lsl 22) + 1)
    | 1 -> fun () -> Random.State.int st 5 - 3
    | _ -> fun () -> Random.State.int st 5
  in
  let evs = ref [] in
  let emit e = evs := e :: !evs in
  let outcome token =
    match Random.State.int st 6 with
    | 0 -> Oplog.Ack { token; at = at () }
    | 1 -> Oplog.Reply { token; value = Some (Printf.sprintf "r%d" (Random.State.int st 20)); at = at () }
    | 2 -> Oplog.Reply { token; value = None; at = at () }
    | 3 -> Oplog.Fail { token; at = at () }
    | 4 -> Oplog.Busy { token; at = at () }
    | _ -> Oplog.Reply { token; value = Some ""; at = at () }
  in
  for i = 0 to rows - 1 do
    let token = tokens.(i) and key = fresh keys.(Random.State.int st (Array.length keys)) in
    let op =
      if Random.State.bool st then Oplog.Op_put { key; value = Printf.sprintf "v%d" i }
      else Oplog.Op_get { key }
    in
    emit (Oplog.Invoke { token; via = session (); op; at = at () });
    for _ = 1 to Random.State.int st 3 do
      emit (outcome tokens.(Random.State.int st (i + 1)))
    done;
    match Random.State.int st 8 with
    | 0 -> emit (outcome (tokens.(i) + 1))  (* a gap, or the next Invoke *)
    | 1 -> emit (outcome (-1 - Random.State.int st 10))
    | 2 -> emit (outcome (!next + Random.State.int st 1_000_000))
    | _ -> ()
  done;
  List.rev !evs

let show_event = function
  | Oplog.Invoke { token; via; op = Op_put { key; value }; at } ->
      Printf.sprintf "Invoke#%d s%d put %s=%s @%g" token via key value at
  | Oplog.Invoke { token; via; op = Op_get { key }; at } ->
      Printf.sprintf "Invoke#%d s%d get %s @%g" token via key at
  | Oplog.Ack { token; at } -> Printf.sprintf "Ack#%d @%g" token at
  | Oplog.Reply { token; value; at } ->
      Printf.sprintf "Reply#%d %s @%g" token (Option.value ~default:"None" value) at
  | Oplog.Fail { token; at } -> Printf.sprintf "Fail#%d @%g" token at
  | Oplog.Busy { token; at } -> Printf.sprintf "Busy#%d @%g" token at

let print_stream evs =
  let n = List.length evs in
  String.concat "; " (List.filteri (fun i _ -> i < 40) (List.map show_event evs))
  ^ if n > 40 then Printf.sprintf "; ... (%d events)" n else ""

let prop_matches_reference =
  QCheck.Test.make ~name:"columnar history = reference fold" ~count:60
    (QCheck.make ~print:print_stream gen_stream)
    (fun evs ->
      let h = H.create () and r = Reference.create () in
      List.iter (fun ev -> H.feed h ev; Reference.feed r ev) evs;
      let es = H.entries h and expected = Reference.entries r in
      (* One string per distinct key: every entry of a key shares it. *)
      let interned (_, group) =
        List.for_all (fun e -> H.key e == H.key (List.hd group)) group
      in
      es = expected
      && H.by_key es = Reference.by_key expected
      && List.for_all interned (H.by_key es))

(* ------------------------------------------------------------------ *)
(* Live memory per recorded operation                                   *)

(* Live words per operation after 200k put/get invocations and their
   outcomes, over 64 keys and 64 values allocated beforehand. With
   [fresh_keys], every Invoke instead carries a new copy of its key,
   which the history must not keep. *)
let live_words_per_op ~fresh_keys =
  let n = 200_000 in
  let keys = Array.init 64 (Printf.sprintf "key-%d") in
  let values = Array.init 64 (Printf.sprintf "value-%d") in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let h = H.create () in
  let before = live () in
  for i = 0 to n - 1 do
    let key = if fresh_keys then fresh keys.(i land 63) else keys.(i land 63) in
    let at = float_of_int i in
    if i mod 4 = 0 then begin
      H.feed h
        (Oplog.Invoke
           { token = i; via = i land 15; op = Op_put { key; value = values.(i land 63) }; at });
      H.feed h (Oplog.Ack { token = i; at = at +. 0.5 })
    end
    else begin
      H.feed h (Oplog.Invoke { token = i; via = i land 15; op = Op_get { key }; at });
      H.feed h (Oplog.Reply { token = i; value = Some values.((i + 1) land 63); at = at +. 0.5 })
    end
  done;
  let per_op = float_of_int (live () - before) /. float_of_int n in
  ignore (Sys.opaque_identity h);
  per_op

(* A row costs 4 words: meta (key id, session and flags), inv, ret and
   value. *)
let bound = 5.

let test_live_words () =
  let per_op = live_words_per_op ~fresh_keys:false in
  if per_op > bound then
    Alcotest.failf "recorder keeps %.1f live words per op (bound %g)" per_op bound

(* Each Invoke's key is a fresh string: the history keeps one string per
   distinct key, so the copies die young and the bound still holds. *)
let test_fresh_keys () =
  let per_op = live_words_per_op ~fresh_keys:true in
  if per_op > bound then
    Alcotest.failf "recorder keeps %.1f live words per op on fresh keys (bound %g)"
      per_op bound

let suite =
  [
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "live words per op" `Quick test_live_words;
    Alcotest.test_case "fresh keys cost no string" `Quick test_fresh_keys;
  ]
