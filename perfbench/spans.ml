(* Bench-side spans: the benchmark brackets its own calls into each layer's
   public functions, never code inside the program. Spans (name, start,
   end, parent) are held in memory and written once, at exit, through the
   Chrome writer of [Dht_telemetry.Trace]. Self time per span name — a
   span's duration minus the part its child spans cover — is accumulated
   for every span, including those past the in-memory cap. *)

module Trace = Dht_telemetry.Trace

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type agg = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

type open_span = { id : int; name : string; start : int; mutable child_ns : int }

(* Closed spans kept for the Chrome file; later ones are only aggregated. *)
let cap = 50_000

type t = {
  on : bool;
  mutable stack : open_span list;
  mutable next_id : int;
  mutable kept : (int * string * int * int * int) list;
  mutable kept_n : int;
  aggs : (string, agg) Hashtbl.t;
}

let create on =
  {
    on;
    stack = [];
    next_id = 1;
    kept = [];
    kept_n = 0;
    aggs = Hashtbl.create 16;
  }

let off = create false
let enabled t = t.on

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
      let a = { count = 0; total_ns = 0; self_ns = 0 } in
      Hashtbl.add t.aggs name a;
      a

let enter t name =
  let sp = { id = t.next_id; name; start = now_ns (); child_ns = 0 } in
  t.next_id <- t.next_id + 1;
  t.stack <- sp :: t.stack

let leave t =
  match t.stack with
  | [] -> invalid_arg "Spans.leave: no open span"
  | sp :: rest ->
      let stop = now_ns () in
      let dur = stop - sp.start in
      t.stack <- rest;
      let parent =
        match rest with
        | p :: _ ->
            p.child_ns <- p.child_ns + dur;
            p.id
        | [] -> 0
      in
      let a = agg t sp.name in
      a.count <- a.count + 1;
      a.total_ns <- a.total_ns + dur;
      a.self_ns <- a.self_ns + (dur - sp.child_ns);
      if t.kept_n < cap then begin
        t.kept <- (sp.id, sp.name, sp.start, stop, parent) :: t.kept;
        t.kept_n <- t.kept_n + 1
      end

(* [with_ t name f] runs [f] inside a span; a no-op wrapper when off. *)
let with_ t name f =
  if not t.on then f ()
  else begin
    enter t name;
    match f () with
    | v ->
        leave t;
        v
    | exception e ->
        leave t;
        raise e
  end

let count t name = match Hashtbl.find_opt t.aggs name with Some a -> a.count | None -> 0

let total_ns t name =
  match Hashtbl.find_opt t.aggs name with Some a -> a.total_ns | None -> 0

let self_ns t name =
  match Hashtbl.find_opt t.aggs name with Some a -> a.self_ns | None -> 0

let names t = Hashtbl.fold (fun n _ acc -> n :: acc) t.aggs [] |> List.sort compare

(* Chrome trace-event file: one track, host-time microseconds from the
   first kept span, the parent id as an argument. *)
let write_chrome t path =
  let spans = List.rev t.kept in
  let origin = match spans with (_, _, s, _, _) :: _ -> s | [] -> 0 in
  let oc = open_out path in
  let tr = Trace.to_channel Trace.Chrome oc in
  List.iter
    (fun (id, name, start, stop, parent) ->
      Trace.span tr
        ~ts:(float_of_int (start - origin) *. 1e-9)
        ~dur:(float_of_int (stop - start) *. 1e-9)
        ~tid:0 ~cat:"bench" ~name
        [ ("id", Trace.Int id); ("parent", Trace.Int parent) ])
    spans;
  Trace.close tr
