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

(* Bits of a row's flags byte. *)
let f_put = 1
let f_result = 2 (* a get's result is [Some v], v in the value column *)
let f_returned = 4 (* the ret column holds the completion time *)
let f_failed = 8
let f_shed = 16

(* Rows are appended in fixed-size chunks, so a column never moves or
   doubles once written; only the spines of chunk pointers grow. *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type chunk = {
  c_token : int array;
  c_session : int array;
  c_inv : Float.Array.t;
  c_ret : Float.Array.t;
  c_flags : Bytes.t;
  c_key : string array;
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
}

let create () =
  { chunks = [||]; rows = 0; index = [||]; base = 0; overflow = Hashtbl.create 1 }

let new_chunk () =
  {
    c_token = Array.make chunk_size 0;
    c_session = Array.make chunk_size 0;
    c_inv = Float.Array.create chunk_size;
    c_ret = Float.Array.create chunk_size;
    c_flags = Bytes.make chunk_size '\000';
    c_key = Array.make chunk_size "";
    c_value = Array.make chunk_size "";
  }

let no_chunk =
  {
    c_token = [||];
    c_session = [||];
    c_inv = Float.Array.create 0;
    c_ret = Float.Array.create 0;
    c_flags = Bytes.empty;
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

let flags c i = Char.code (Bytes.unsafe_get c.c_flags i)
let set_flags c i f = Bytes.unsafe_set c.c_flags i (Char.unsafe_chr f)

let append t ~token ~session ~inv ~key ~value ~flags =
  let row = t.rows in
  let ci = row lsr chunk_bits and i = row land chunk_mask in
  if i = 0 then begin
    if ci = Array.length t.chunks then t.chunks <- grow t.chunks no_chunk;
    t.chunks.(ci) <- new_chunk ()
  end;
  let c = t.chunks.(ci) in
  c.c_token.(i) <- token;
  c.c_session.(i) <- session;
  Float.Array.set c.c_inv i inv;
  set_flags c i flags;
  c.c_key.(i) <- key;
  c.c_value.(i) <- value;
  index t token row;
  t.rows <- row + 1

(* Apply [f] to the row of [token]; events on unknown tokens are ignored. *)
let update t token f =
  let row = find t token in
  if row >= 0 then f t.chunks.(row lsr chunk_bits) (row land chunk_mask)

let returned c i at =
  Float.Array.set c.c_ret i at;
  set_flags c i (flags c i lor f_returned)

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
          let fl = flags c i in
          if fl land f_put = 0 then
            match value with
            | Some v ->
                c.c_value.(i) <- v;
                set_flags c i (fl lor f_result)
            | None ->
                c.c_value.(i) <- "";
                set_flags c i (fl land lnot f_result))
  | Fail { token; at = _ } ->
      update t token (fun c i -> set_flags c i (flags c i lor f_failed))
  | Busy { token; at = _ } ->
      (* Shed by admission control: failed, and additionally guaranteed
         to have had no effect anywhere. *)
      update t token (fun c i ->
          set_flags c i (flags c i lor f_failed lor f_shed))

let attach t rt = Runtime.set_recorder rt (Some (feed t))

let entry t row =
  let c = t.chunks.(row lsr chunk_bits) and i = row land chunk_mask in
  let fl = flags c i in
  let has f = fl land f <> 0 in
  let key = c.c_key.(i) in
  {
    token = c.c_token.(i);
    session = c.c_session.(i);
    op =
      (if has f_put then Put { key; value = c.c_value.(i) }
       else Get { key; result = (if has f_result then Some c.c_value.(i) else None) });
    inv = Float.Array.get c.c_inv i;
    ret = (if has f_returned then Some (Float.Array.get c.c_ret i) else None);
    failed = has f_failed;
    shed = has f_shed;
  }

let entries t =
  let rec build row acc = if row < 0 then acc else build (row - 1) (entry t row :: acc) in
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
