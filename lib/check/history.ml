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

(* A row's meta column holds its session above [meta_bits] flag bits:
   [session lsl meta_bits lor flags]. *)
let f_put = 1
let f_result = 2 (* a get's result is [Some v], v in the value column *)
let f_returned = 4 (* the ret column holds the completion time *)
let f_failed = 8
let f_shed = 16
let meta_bits = 5

(* Rows are appended in fixed-size chunks, so a column never moves or
   doubles once written; only the spines of chunk pointers grow. *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type chunk = {
  c_meta : int array;
  c_inv : Float.Array.t;
  c_ret : Float.Array.t;
  c_key : string array;  (* interned: one string per distinct key *)
  c_value : string array;  (* a put's value, or a get's result *)
}

type t = {
  mutable chunks : chunk array;
  mutable rows : int;
  (* token -> row + 1 (0: absent), dense over the offsets token - base;
     chunks of it are allocated on first use. *)
  mutable index : int array array;
  mutable base : int;
  (* Tokens below [base] or far beyond the rows recorded so far, which
     the runtime's consecutive tokens never produce. *)
  overflow : (int, int) Hashtbl.t;
  (* Open addressing over the first row of each distinct key: row + 1
     (0: empty), probed linearly from the key's hash. At most three
     quarters full, so a key costs 1.33 to 2.67 slots. *)
  mutable keys : int array;
  mutable distinct : int;
}

let create () =
  {
    chunks = [||];
    rows = 0;
    index = [||];
    base = 0;
    overflow = Hashtbl.create 1;
    keys = Array.make 16 0;
    distinct = 0;
  }

let new_chunk () =
  {
    c_meta = Array.make chunk_size 0;
    c_inv = Float.Array.create chunk_size;
    c_ret = Float.Array.create chunk_size;
    c_key = Array.make chunk_size "";
    c_value = Array.make chunk_size "";
  }

let no_chunk =
  {
    c_meta = [||];
    c_inv = Float.Array.create 0;
    c_ret = Float.Array.create 0;
    c_key = [||];
    c_value = [||];
  }

let grow spine fill =
  let bigger = Array.make (max 1 (2 * Array.length spine)) fill in
  Array.blit spine 0 bigger 0 (Array.length spine);
  bigger

let index t token row =
  if row = 0 then t.base <- token;
  let off = token - t.base in
  (* The dense part grows with the rows, so a stray token far ahead
     cannot make it allocate more than a few words per row. *)
  if off >= 0 && off < 4 * (row + chunk_size) then begin
    let ci = off lsr chunk_bits in
    while ci >= Array.length t.index do
      t.index <- grow t.index [||]
    done;
    if Array.length t.index.(ci) = 0 then
      t.index.(ci) <- Array.make chunk_size 0;
    t.index.(ci).(off land chunk_mask) <- row + 1
  end
  else Hashtbl.replace t.overflow token row

let find t token =
  let off = token - t.base in
  let dense =
    if off >= 0 && off lsr chunk_bits < Array.length t.index then
      let c = t.index.(off lsr chunk_bits) in
      if Array.length c = 0 then 0 else c.(off land chunk_mask)
    else 0
  in
  if dense > 0 then dense - 1
  else Option.value ~default:(-1) (Hashtbl.find_opt t.overflow token)

let key_at t row = t.chunks.(row lsr chunk_bits).c_key.(row land chunk_mask)

let rec probe t keys key mask s =
  let r = keys.(s) in
  if r = 0 || String.equal (key_at t (r - 1)) key then s
  else probe t keys key mask ((s + 1) land mask)

(* The slot of [keys] that holds the row of a key equal to [key], or the
   empty slot where [key] would go. *)
let slot t keys key =
  let mask = Array.length keys - 1 in
  probe t keys key mask (Hashtbl.hash key land mask)

(* The string the history keeps for [key], which [row] is about to hold:
   an earlier row's equal key, so a client's fresh copy is not retained. *)
let intern t key row =
  let s = slot t t.keys key in
  if t.keys.(s) > 0 then key_at t (t.keys.(s) - 1)
  else begin
    if 4 * (t.distinct + 1) <= 3 * Array.length t.keys then t.keys.(s) <- row + 1
    else begin
      (* Full: rehash every key's first row into twice the slots. *)
      let keys = Array.make (2 * Array.length t.keys) 0 in
      Array.iter (fun r -> if r > 0 then keys.(slot t keys (key_at t (r - 1))) <- r) t.keys;
      keys.(slot t keys key) <- row + 1;
      t.keys <- keys
    end;
    t.distinct <- t.distinct + 1;
    key
  end

let flags c i = c.c_meta.(i) land ((1 lsl meta_bits) - 1)
let set c i f = c.c_meta.(i) <- c.c_meta.(i) lor f

let append t ~token ~session ~inv ~key ~value ~flags =
  let row = t.rows in
  let ci = row lsr chunk_bits and i = row land chunk_mask in
  if i = 0 then begin
    if ci = Array.length t.chunks then t.chunks <- grow t.chunks no_chunk;
    t.chunks.(ci) <- new_chunk ()
  end;
  let c = t.chunks.(ci) in
  c.c_meta.(i) <- (session lsl meta_bits) lor flags;
  Float.Array.set c.c_inv i inv;
  c.c_key.(i) <- intern t key row;
  c.c_value.(i) <- value;
  index t token row;
  t.rows <- row + 1

(* Apply [f] to the row of [token]; events on unknown tokens are ignored. *)
let update t token f =
  let row = find t token in
  if row >= 0 then f t.chunks.(row lsr chunk_bits) (row land chunk_mask)

let returned c i at =
  Float.Array.set c.c_ret i at;
  set c i f_returned

let feed t (ev : Runtime.Oplog.event) =
  match ev with
  | Invoke { token; via; op = Op_put { key; value }; at } ->
      append t ~token ~session:via ~inv:at ~key ~value ~flags:f_put
  | Invoke { token; via; op = Op_get { key }; at } ->
      append t ~token ~session:via ~inv:at ~key ~value:"" ~flags:0
  | Ack { token; at } -> update t token (fun c i -> returned c i at)
  | Reply { token; value; at } ->
      update t token (fun c i ->
          returned c i at;
          if flags c i land f_put = 0 then
            match value with
            | Some v ->
                c.c_value.(i) <- v;
                set c i f_result
            | None ->
                c.c_value.(i) <- "";
                c.c_meta.(i) <- c.c_meta.(i) land lnot f_result)
  | Fail { token; at = _ } -> update t token (fun c i -> set c i f_failed)
  | Busy { token; at = _ } ->
      (* Shed by admission control: failed, and additionally guaranteed
         to have had no effect anywhere. *)
      update t token (fun c i -> set c i (f_failed lor f_shed))

let attach t rt = Runtime.set_recorder rt (Some (feed t))

(* Row -> token, rebuilt from the index: each row is indexed once, under
   its own token, in the dense part or in the overflow table. *)
let tokens t =
  let tokens = Array.make t.rows 0 in
  Array.iteri
    (fun ci c ->
      Array.iteri
        (fun j r -> if r > 0 then tokens.(r - 1) <- t.base + (ci lsl chunk_bits) + j)
        c)
    t.index;
  Hashtbl.iter (fun token row -> tokens.(row) <- token) t.overflow;
  tokens

let entry t tokens row =
  let c = t.chunks.(row lsr chunk_bits) and i = row land chunk_mask in
  let fl = flags c i in
  let has f = fl land f <> 0 in
  let key = c.c_key.(i) in
  {
    token = tokens.(row);
    session = c.c_meta.(i) asr meta_bits;
    op =
      (if has f_put then Put { key; value = c.c_value.(i) }
       else Get { key; result = (if has f_result then Some c.c_value.(i) else None) });
    inv = Float.Array.get c.c_inv i;
    ret = (if has f_returned then Some (Float.Array.get c.c_ret i) else None);
    failed = has f_failed;
    shed = has f_shed;
  }

let entries t =
  let tokens = tokens t in
  let rec build row acc =
    if row < 0 then acc else build (row - 1) (entry t tokens row :: acc)
  in
  build (t.rows - 1) []

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
