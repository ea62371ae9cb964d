module Runtime = Dht_snode.Runtime

type op =
  | Put of { key : string; value : string }
  | Get of { key : string; result : string option }

type entry = {
  token : int;
  session : int;
  op : op;
  inv : float;
  ret : float option;
  failed : bool;
  shed : bool;
}

let key e = match e.op with Put { key; _ } | Get { key; _ } -> key
let completed e = e.ret <> None

(* A row's meta word packs, from the top, the interned key's id, the
   session ([session_bits] wide) and [meta_bits] flag bits:
   [key lsl key_shift lor session lsl meta_bits lor flags]. *)
let f_put = 1
let f_result = 2 (* a get's result is [Some v], v in the value column *)
let f_returned = 4 (* the ret column holds the completion time *)
let f_failed = 8
let f_shed = 16
let f_side = 32 (* token and session are in the side tables, not packed *)
let meta_bits = 6
let session_bits = 21
let session_mask = (1 lsl session_bits) - 1
let key_shift = meta_bits + session_bits

(* Rows and key strings are appended in fixed-size chunks, so nothing
   moves or doubles once written; only the spines of chunk pointers
   grow. *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type chunk = {
  c_meta : int array;
  c_inv : Float.Array.t;
  c_ret : Float.Array.t;
  c_value : string array;  (* a put's value, or a get's result *)
}

type t = {
  mutable chunks : chunk array;
  mutable rows : int;
  (* Token gaps: breakpoint [b] says that from row [gaps.(2b)] on, up to
     the next breakpoint's first row, a row that is not a side row holds
     token [row + gaps.(2b + 1)]. Such rows' tokens increase with the
     row, so the breakpoints' first tokens increase too. *)
  mutable gaps : int array;
  mutable n_gaps : int;
  mutable last : int;  (* the last token a breakpoint covers *)
  (* Side rows: an Invoke whose token is not above [last], or whose
     session does not fit [session_bits], which the runtime's increasing
     tokens and small snode ids never produce. *)
  side_rows : (int, int) Hashtbl.t;  (* token -> row *)
  side_ids : (int, int * int) Hashtbl.t;  (* row -> (token, session) *)
  (* Key id -> the one string kept for that key, in chunks. *)
  mutable key_chunks : string array array;
  (* Open addressing over the key ids: id + 1 (0: empty), probed
     linearly from the key's hash. At most three quarters full, so a key
     costs 1.33 to 2.67 slots. *)
  mutable keys : int array;
  mutable distinct : int;
}

let create () =
  {
    chunks = [||];
    rows = 0;
    gaps = Array.make 8 0;
    n_gaps = 0;
    last = min_int;
    side_rows = Hashtbl.create 1;
    side_ids = Hashtbl.create 1;
    key_chunks = [||];
    keys = Array.make 16 0;
    distinct = 0;
  }

let new_chunk () =
  {
    c_meta = Array.make chunk_size 0;
    c_inv = Float.Array.create chunk_size;
    c_ret = Float.Array.create chunk_size;
    c_value = Array.make chunk_size "";
  }

let no_chunk =
  {
    c_meta = [||];
    c_inv = Float.Array.create 0;
    c_ret = Float.Array.create 0;
    c_value = [||];
  }

let grow spine fill =
  let bigger = Array.make (max 1 (2 * Array.length spine)) fill in
  Array.blit spine 0 bigger 0 (Array.length spine);
  bigger

let meta t row = t.chunks.(row lsr chunk_bits).c_meta.(row land chunk_mask)

(* Record that [row] holds [token], the highest so far: a new breakpoint
   unless the last one's offset already gives it. *)
let cover t row token =
  let d = token - row in
  if t.n_gaps = 0 || t.gaps.(2 * t.n_gaps - 1) <> d then begin
    if 2 * t.n_gaps = Array.length t.gaps then t.gaps <- grow t.gaps 0;
    t.gaps.(2 * t.n_gaps) <- row;
    t.gaps.((2 * t.n_gaps) + 1) <- d;
    t.n_gaps <- t.n_gaps + 1
  end;
  t.last <- token

let first_token gaps b = gaps.(2 * b) + gaps.((2 * b) + 1)

(* The last breakpoint in [lo, hi] whose first token is at most [token],
   given that [lo]'s is. *)
let rec last_at_most gaps token lo hi =
  if lo = hi then lo
  else
    let mid = (lo + hi + 1) / 2 in
    if first_token gaps mid <= token then last_at_most gaps token mid hi
    else last_at_most gaps token lo (mid - 1)

(* The row of [token], or -1. *)
let find t token =
  let covered =
    if t.n_gaps = 0 || token < first_token t.gaps 0 || token > t.last then -1
    else
      let b = last_at_most t.gaps token 0 (t.n_gaps - 1) in
      let row = token - t.gaps.((2 * b) + 1) in
      let stop = if b + 1 < t.n_gaps then t.gaps.(2 * (b + 1)) else t.rows in
      if row < stop && meta t row land f_side = 0 then row else -1
  in
  if covered >= 0 then covered
  else Option.value ~default:(-1) (Hashtbl.find_opt t.side_rows token)

let key_of t id = t.key_chunks.(id lsr chunk_bits).(id land chunk_mask)

let rec probe t keys key mask s =
  let k = keys.(s) in
  if k = 0 || String.equal (key_of t (k - 1)) key then s
  else probe t keys key mask ((s + 1) land mask)

(* The slot of [keys] that holds the id of a key equal to [key], or the
   empty slot where [key] would go. *)
let slot t keys key =
  let mask = Array.length keys - 1 in
  probe t keys key mask (Hashtbl.hash key land mask)

(* The id of [key]: an earlier equal key's, so a client's fresh copy is
   not retained, or a new one that keeps [key]. *)
let intern t key =
  let s = slot t t.keys key in
  if t.keys.(s) > 0 then t.keys.(s) - 1
  else begin
    let id = t.distinct in
    let ci = id lsr chunk_bits in
    if id land chunk_mask = 0 then begin
      if ci = Array.length t.key_chunks then t.key_chunks <- grow t.key_chunks [||];
      t.key_chunks.(ci) <- Array.make chunk_size ""
    end;
    t.key_chunks.(ci).(id land chunk_mask) <- key;
    if 4 * (id + 1) <= 3 * Array.length t.keys then t.keys.(s) <- id + 1
    else begin
      (* Full: rehash every id into twice the slots. *)
      let keys = Array.make (2 * Array.length t.keys) 0 in
      Array.iter (fun k -> if k > 0 then keys.(slot t keys (key_of t (k - 1))) <- k) t.keys;
      keys.(slot t keys key) <- id + 1;
      t.keys <- keys
    end;
    t.distinct <- id + 1;
    id
  end

let append t ~token ~session ~inv ~key ~value ~flags =
  let row = t.rows in
  let ci = row lsr chunk_bits and i = row land chunk_mask in
  if i = 0 then begin
    if ci = Array.length t.chunks then t.chunks <- grow t.chunks no_chunk;
    t.chunks.(ci) <- new_chunk ()
  end;
  let c = t.chunks.(ci) in
  let key = intern t key lsl key_shift in
  c.c_meta.(i) <-
    (if token > t.last && session land session_mask = session then begin
       cover t row token;
       key lor (session lsl meta_bits) lor flags
     end
     else begin
       Hashtbl.replace t.side_rows token row;
       Hashtbl.replace t.side_ids row (token, session);
       key lor f_side lor flags
     end);
  Float.Array.set c.c_inv i inv;
  c.c_value.(i) <- value;
  t.rows <- row + 1

let set c i f = c.c_meta.(i) <- c.c_meta.(i) lor f

let returned c i at =
  Float.Array.set c.c_ret i at;
  set c i f_returned

(* Events on unknown tokens are ignored. *)
let feed t (ev : Runtime.Oplog.event) =
  match ev with
  | Invoke { token; via; op = Op_put { key; value }; at } ->
      append t ~token ~session:via ~inv:at ~key ~value ~flags:f_put
  | Invoke { token; via; op = Op_get { key }; at } ->
      append t ~token ~session:via ~inv:at ~key ~value:"" ~flags:0
  | Ack { token; at } | Reply { token; at; _ } | Fail { token; at } | Busy { token; at } -> (
      let row = find t token in
      if row >= 0 then
        let c = t.chunks.(row lsr chunk_bits) and i = row land chunk_mask in
        match ev with
        | Ack _ -> returned c i at
        | Reply { value; _ } ->
            returned c i at;
            if c.c_meta.(i) land f_put = 0 then begin
              match value with
              | Some v ->
                  c.c_value.(i) <- v;
                  set c i f_result
              | None ->
                  c.c_value.(i) <- "";
                  c.c_meta.(i) <- c.c_meta.(i) land lnot f_result
            end
        | Fail _ -> set c i f_failed
        | Busy _ ->
            (* Shed by admission control: failed, and additionally
               guaranteed to have had no effect anywhere. *)
            set c i (f_failed lor f_shed)
        | Invoke _ -> ())

let attach t rt = Runtime.set_recorder rt (Some (feed t))

let entry t row ~token ~session =
  let c = t.chunks.(row lsr chunk_bits) and i = row land chunk_mask in
  let m = c.c_meta.(i) in
  let has f = m land f <> 0 in
  let key = key_of t (m lsr key_shift) in
  {
    token;
    session;
    op =
      (if has f_put then Put { key; value = c.c_value.(i) }
       else Get { key; result = (if has f_result then Some c.c_value.(i) else None) });
    inv = Float.Array.get c.c_inv i;
    ret = (if has f_returned then Some (Float.Array.get c.c_ret i) else None);
    failed = has f_failed;
    shed = has f_shed;
  }

(* Built from the last row back, the breakpoint [b] covering [row]
   walking back with it. *)
let entries t =
  let rec build row b acc =
    if row < 0 then acc
    else
      let b = if b >= 0 && t.gaps.(2 * b) > row then b - 1 else b in
      let m = meta t row in
      let e =
        if m land f_side <> 0 then
          let token, session = Hashtbl.find t.side_ids row in
          entry t row ~token ~session
        else
          entry t row ~token:(row + t.gaps.((2 * b) + 1))
            ~session:((m lsr meta_bits) land session_mask)
      in
      build (row - 1) b (e :: acc)
  in
  build (t.rows - 1) (t.n_gaps - 1) []

let by_key es =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let k = key e in
      Hashtbl.replace tbl k (e :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    es;
  Hashtbl.fold (fun k es acc -> (k, List.rev es) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_entry ppf e =
  let status =
    match (e.ret, e.shed, e.failed) with
    | Some _, _, _ -> "ok"
    | None, true, _ -> "shed"
    | None, false, true -> "failed"
    | None, false, false -> "pending"
  in
  match e.op with
  | Put { key; value } ->
      Format.fprintf ppf "#%d s%d put %s=%s [%s]" e.token e.session key value
        status
  | Get { key; result } ->
      Format.fprintf ppf "#%d s%d get %s -> %s [%s]" e.token e.session key
        (match result with Some v -> v | None -> "none")
        status
