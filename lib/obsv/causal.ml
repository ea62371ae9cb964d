type edge = {
  e_span : int;
  e_trace : int;
  e_parent : int;
  e_src : int;
  e_dst : int;
  e_tag : string;
  e_bytes : int;
  e_send : float;
  mutable e_xmits : float list;  (* ascending *)
  mutable e_recv : float option;
}

type op = {
  o_trace : int;
  o_root : int;
  o_op : string;
  o_tid : int;
  o_begin : float;
  mutable o_end : (float * int * string) option;  (* ts, parent span, outcome *)
}

type t = {
  ops : (int, op) Hashtbl.t;  (* trace id -> op *)
  edges : (int, edge) Hashtbl.t;  (* span id -> edge *)
  roots : (int, int) Hashtbl.t;  (* root span id -> trace id *)
  recorded : (int, float) Hashtbl.t;  (* token -> runtime-recorded latency *)
  mutable lines : int;
  mutable malformed : string list;  (* unparseable lines (reversed) *)
}

let geti v key = Jsonl.to_int (Jsonl.member key v)
let gets v key = Jsonl.to_string (Jsonl.member key v)
let getf v key = Jsonl.to_float (Jsonl.member key v)

let require what = function
  | Some v -> v
  | None -> raise (Jsonl.Parse_error ("missing field " ^ what))

let add_event t line v =
  let args = Option.value ~default:(Jsonl.Obj []) (Jsonl.member "args" v) in
  let cat = Option.value ~default:"" (gets v "cat") in
  let name = Option.value ~default:"" (gets v "name") in
  let ts = require "ts" (getf v "ts") in
  match (cat, name) with
  | "sim", "op" -> (
      (* runtime-recorded op latency: cross-check target for the causal
         decomposition *)
      match (geti args "token", getf v "dur") with
      | Some token, Some dur -> Hashtbl.replace t.recorded token dur
      | _ -> ())
  | "causal", "op.begin" ->
      let trace = require "trace" (geti args "trace") in
      let root = require "span" (geti args "span") in
      Hashtbl.replace t.ops trace
        {
          o_trace = trace;
          o_root = root;
          o_op = Option.value ~default:"?" (gets args "op");
          o_tid = Option.value ~default:(-1) (geti v "tid");
          o_begin = ts;
          o_end = None;
        };
      Hashtbl.replace t.roots root trace
  | "causal", "op.end" -> (
      let trace = require "trace" (geti args "trace") in
      let parent = require "parent" (geti args "parent") in
      let outcome = Option.value ~default:"?" (gets args "outcome") in
      match Hashtbl.find_opt t.ops trace with
      | Some op -> op.o_end <- Some (ts, parent, outcome)
      | None ->
          t.malformed <-
            Printf.sprintf "op.end for unknown trace %d: %s" trace line
            :: t.malformed)
  | "causal", "msg.send" ->
      let span = require "span" (geti args "span") in
      Hashtbl.replace t.edges span
        {
          e_span = span;
          e_trace = require "trace" (geti args "trace");
          e_parent = require "parent" (geti args "parent");
          e_src = Option.value ~default:(-1) (geti args "src");
          e_dst = Option.value ~default:(-1) (geti args "dst");
          e_tag = Option.value ~default:"?" (gets args "tag");
          e_bytes = Option.value ~default:0 (geti args "bytes");
          e_send = ts;
          e_xmits = [];
          e_recv = None;
        }
  | "causal", "msg.xmit" -> (
      let parent = require "parent" (geti args "parent") in
      match Hashtbl.find_opt t.edges parent with
      | Some e -> e.e_xmits <- e.e_xmits @ [ ts ]
      | None ->
          t.malformed <-
            Printf.sprintf "msg.xmit for unknown edge %d: %s" parent line
            :: t.malformed)
  | "causal", "msg.recv" -> (
      let span = require "span" (geti args "span") in
      match Hashtbl.find_opt t.edges span with
      | Some e -> if e.e_recv = None then e.e_recv <- Some ts
      | None ->
          t.malformed <-
            Printf.sprintf "msg.recv for unknown edge %d: %s" span line
            :: t.malformed)
  | _ -> ()

let create () =
  {
    ops = Hashtbl.create 256;
    edges = Hashtbl.create 1024;
    roots = Hashtbl.create 256;
    recorded = Hashtbl.create 256;
    lines = 0;
    malformed = [];
  }

let add_line t line =
  if String.trim line <> "" then begin
    t.lines <- t.lines + 1;
    match Jsonl.parse line with
    | Error msg -> t.malformed <- Printf.sprintf "%s: %s" msg line :: t.malformed
    | Ok v -> (
        try add_event t line v
        with Jsonl.Parse_error msg ->
          t.malformed <- Printf.sprintf "%s: %s" msg line :: t.malformed)
  end

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let t = create () in
      (try
         while true do
           add_line t (input_line ic)
         done
       with End_of_file -> ());
      close_in ic;
      Ok t

let malformed t = List.rev t.malformed
let events t = t.lines
let op_count t = Hashtbl.length t.ops
let edge_count t = Hashtbl.length t.edges

let roots t =
  Hashtbl.fold (fun trace _ acc -> trace :: acc) t.ops [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Well-formedness audit. *)

let audit t =
  let findings = ref (List.rev t.malformed) in
  let note fmt = Printf.ksprintf (fun s -> findings := s :: !findings) fmt in
  let parent_trace span =
    match Hashtbl.find_opt t.edges span with
    | Some e -> Some e.e_trace
    | None -> Hashtbl.find_opt t.roots span
  in
  Hashtbl.iter
    (fun _ e ->
      (* span ids come from one monotonic counter, so a well-formed child
         is always younger than its parent — equality or inversion means a
         cycle (or a forged parent) *)
      if e.e_parent >= e.e_span then
        note "edge %d: parent %d not older (cycle?)" e.e_span e.e_parent;
      (match parent_trace e.e_parent with
      | None -> note "edge %d: parent span %d does not exist" e.e_span e.e_parent
      | Some tr when tr <> e.e_trace ->
          note "edge %d: parent belongs to trace %d, edge to %d" e.e_span tr
            e.e_trace
      | Some _ -> ());
      (match e.e_recv with
      | Some r when r < e.e_send -> note "edge %d: recv before send" e.e_span
      | _ -> ());
      match e.e_xmits with
      | x :: _ when x < e.e_send -> note "edge %d: xmit before send" e.e_span
      | _ -> ())
    t.edges;
  (* reachability: walk each edge up to a root; parent < span bounds the
     walk even on (reported) cycles *)
  Hashtbl.iter
    (fun _ e ->
      let rec walk span guard =
        if guard = 0 then note "edge %d: parent chain too deep" e.e_span
        else if Hashtbl.mem t.roots span then ()
        else
          match Hashtbl.find_opt t.edges span with
          | Some p when p.e_parent < span -> walk p.e_parent (guard - 1)
          | Some _ -> ()  (* inversion already reported above *)
          | None -> ()  (* missing parent already reported above *)
      in
      walk e.e_span 1_000_000)
    t.edges;
  Hashtbl.iter
    (fun trace op ->
      match op.o_end with
      | None -> ()
      | Some (ts, parent, _) ->
          if ts < op.o_begin then note "op %d: end before begin" trace;
          if parent <> op.o_root && not (Hashtbl.mem t.edges parent) then
            note "op %d: end parent span %d does not exist" trace parent)
    t.ops;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Critical-path decomposition. *)

type breakdown = {
  queue : float;
  network : float;
  service : float;
  retransmit : float;
  total : float;
}

type step = {
  s_tag : string;
  s_src : int;
  s_dst : int;
  s_queue : float;
  s_retransmit : float;
  s_network : float;
  s_attempts : int;
}

type analyzed = {
  a_trace : int;
  a_op : string;
  a_outcome : string;
  a_breakdown : breakdown;
  a_recorded : float option;
  a_path : step list;  (* root-to-completion order *)
}

let decompose_edge e =
  let recv = Option.value ~default:e.e_send e.e_recv in
  match List.filter (fun x -> x <= recv) e.e_xmits with
  | [] ->
      (* never transmitted before delivery (a parked local hand-off): the
         whole latency is wait *)
      (recv -. e.e_send, 0., 0., max 1 (List.length e.e_xmits))
  | xs ->
      let first = List.hd xs in
      let last = List.fold_left Float.max first xs in
      (first -. e.e_send, last -. first, recv -. last, List.length e.e_xmits)

let analyze_op t op =
  match op.o_end with
  | None -> None
  | Some (end_ts, end_parent, outcome) ->
      let total = end_ts -. op.o_begin in
      (* walk from the completion parent back to the op root; parent < span
         makes the walk finite even on malformed input *)
      let rec collect span acc =
        if span = op.o_root then Some acc
        else
          match Hashtbl.find_opt t.edges span with
          | Some e when e.e_parent < e.e_span -> collect e.e_parent (e :: acc)
          | _ -> None
      in
      Option.map
        (fun path ->
          let queue = ref 0. and retx = ref 0. and net = ref 0. in
          let on_wire = ref 0. in
          let steps =
            List.map
              (fun e ->
                let q, r, n, attempts = decompose_edge e in
                queue := !queue +. q;
                retx := !retx +. r;
                net := !net +. n;
                let recv = Option.value ~default:e.e_send e.e_recv in
                on_wire := !on_wire +. (recv -. e.e_send);
                {
                  s_tag = e.e_tag;
                  s_src = e.e_src;
                  s_dst = e.e_dst;
                  s_queue = q;
                  s_retransmit = r;
                  s_network = n;
                  s_attempts = attempts;
                })
              path
          in
          (* service is the residual: time at snodes between causal hops.
             Defined this way the four components sum to [total] exactly. *)
          let service = total -. !on_wire in
          {
            a_trace = op.o_trace;
            a_op = op.o_op;
            a_outcome = outcome;
            a_breakdown =
              {
                queue = !queue;
                network = !net;
                service;
                retransmit = !retx;
                total;
              };
            a_recorded = Hashtbl.find_opt t.recorded op.o_trace;
            a_path = steps;
          })
        (collect end_parent [])

type analysis = {
  complete : analyzed list;  (* slowest first *)
  unfinished : int;  (* ops with no op.end (still pending at trace end) *)
  broken : int;  (* ops whose path could not be reconstructed *)
}

let analyze t =
  let complete = ref [] and unfinished = ref 0 and broken = ref 0 in
  Hashtbl.iter
    (fun _ op ->
      match analyze_op t op with
      | Some a -> complete := a :: !complete
      | None ->
          if op.o_end = None then incr unfinished else incr broken)
    t.ops;
  let complete =
    List.sort
      (fun a b ->
        match compare b.a_breakdown.total a.a_breakdown.total with
        | 0 -> compare a.a_trace b.a_trace
        | c -> c)
      !complete
  in
  { complete; unfinished = !unfinished; broken = !broken }

let sum_mismatches ?(tolerance = 1e-9) analysis =
  List.filter_map
    (fun a ->
      let b = a.a_breakdown in
      let parts = b.queue +. b.network +. b.service +. b.retransmit in
      let against = Option.value ~default:b.total a.a_recorded in
      let tol = tolerance *. Float.max 1. (Float.abs against) in
      if Float.abs (parts -. against) > tol then
        Some
          (Printf.sprintf
             "op %d (%s): components sum to %.9g but recorded latency is %.9g"
             a.a_trace a.a_op parts against)
      else None)
    analysis.complete

let percentile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
      arr.(max 0 (min (n - 1) idx))

type component_summary = { c_name : string; c_p50 : float; c_p99 : float; c_share : float }

let summarize analysis =
  let ops = analysis.complete in
  let extract f = List.map (fun a -> f a.a_breakdown) ops in
  let total_sum = List.fold_left ( +. ) 0. (extract (fun b -> b.total)) in
  let comp name f =
    let xs = extract f in
    let sum = List.fold_left ( +. ) 0. xs in
    {
      c_name = name;
      c_p50 = percentile xs 0.50;
      c_p99 = percentile xs 0.99;
      c_share = (if total_sum > 0. then 100. *. sum /. total_sum else 0.);
    }
  in
  [
    comp "queue" (fun b -> b.queue);
    comp "network" (fun b -> b.network);
    comp "service" (fun b -> b.service);
    comp "retransmit" (fun b -> b.retransmit);
    comp "total" (fun b -> b.total);
  ]
