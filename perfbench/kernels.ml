(* Layer kernels: Bechamel micro-benchmarks of single public functions,
   fed from a workload's end state (partition layout, cells per snode,
   observed event-queue depth, recorded wire-tag mix). Each kernel reports
   OLS-estimated nanoseconds and minor-heap words per call. *)

open Bechamel
open Toolkit
module Wire = Dht_snode.Wire
module Engine = Dht_event_sim.Engine
module Rng = Dht_prng.Rng
module Space = Dht_hashspace.Space
module Span = Dht_hashspace.Span
module Point_map = Dht_hashspace.Point_map
module Hash = Dht_hashes.Hash
module Versioned = Dht_kv.Versioned
module Placement = Dht_replication.Placement
module Merkle = Dht_merkle.Merkle
module Histogram = Dht_telemetry.Histogram
module Local_dht = Dht_core.Local_dht
module Vnode_id = Dht_core.Vnode_id

type cost = { ns : float; words : float }

(* The state a kernel is fed from, taken after the measured window. *)
type inputs = {
  space : Space.t;
  layout : (Span.t * int) list;  (** every partition and its snode *)
  snodes : int;
  vnodes : int;
  rfactor : int;
  cells_per_snode : int;  (** median cells (owned + replica) per snode *)
  depth : int;  (** median event-queue depth seen at slice boundaries *)
  tag_mix : (string * int) list;  (** window messages per wire tag *)
  keys : string array;  (** a sample of the workload's keys *)
}

let cell i = Versioned.cell ~value:("w" ^ string_of_int i) ~ts:(float_of_int i) ~origin:(i land 15) ()

(* The tag of a message inside the reliable layer's [Req] frame, without
   the frame's ["req:"] prefix. *)
let strip_req tag =
  if String.length tag > 4 && String.sub tag 0 4 = "req:" then
    String.sub tag 4 (String.length tag - 4)
  else tag

(* A representative message for a wire tag, [None] for tags the kernel
   does not model (the remainder is left unattributed). *)
let message_of_tag inp i tag =
  let key = inp.keys.(i mod Array.length inp.keys) in
  let point = Hash.string inp.space key in
  let tag = strip_req tag in
  let get = Wire.Repl_get { token = i; key; point } in
  let put = Wire.Repl_put { token = i; key; point; cell = cell i } in
  match tag with
  | "repl:get" -> Some get
  | "repl:put" -> Some put
  | "repl:get-reply" -> Some (Wire.Repl_get_reply { token = i; cell = Some (cell i) })
  | "repl:put-ack" -> Some (Wire.Repl_put_ack { token = i })
  | "routed:put" ->
      Some
        (Wire.Routed
           { point; hops = 1; retries = 0; origin = 0; op = Wire.Op_put { key; value = "w"; token = i } })
  | "routed:get" ->
      Some
        (Wire.Routed { point; hops = 1; retries = 0; origin = 0; op = Wire.Op_get { key; token = i } })
  | "put-ack" -> Some (Wire.Put_ack { token = i; hint = None })
  | "get-reply" -> Some (Wire.Get_reply { token = i; value = Some "w"; hint = None })
  | "ack" -> Some (Wire.Ack { seq = i; floor = i })
  | "batch" -> Some (Wire.Batch [ get; put; get; put ])
  | _ -> None

let sample_messages inp =
  let modelled =
    List.filter_map
      (fun (tag, n) -> Option.map (fun _ -> (tag, n)) (message_of_tag inp 0 tag))
      inp.tag_mix
  in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 modelled in
  if total = 0 then [| Wire.Ack { seq = 0; floor = 0 } |]
  else begin
    let slots = 256 in
    let out = ref [] in
    List.iter
      (fun (tag, n) ->
        let k = max 1 (n * slots / total) in
        for j = 0 to k - 1 do
          match message_of_tag inp j tag with Some m -> out := m :: !out | None -> ()
        done)
      modelled;
    Array.of_list (List.rev !out)
  end

let layout_map inp =
  let m = Point_map.create inp.space in
  List.iter (fun (sp, sid) -> Point_map.add m sp sid) inp.layout;
  m

let tests inp =
  let rng = Rng.of_int 2004 in
  let size = Space.size inp.space in
  let points = Array.init 1024 (fun _ -> Rng.int rng size) in
  let cursor = ref 0 in
  let next () =
    incr cursor;
    !cursor land 1023
  in
  (* Event heap at the observed depth: far-future fillers keep the depth
     fixed while each call pushes one immediate event and pops it. *)
  let engine = Engine.create () in
  for _ = 1 to inp.depth do
    Engine.schedule engine ~delay:(1e6 +. Rng.float rng) ignore
  done;
  let step () =
    Engine.schedule engine ~delay:0. ignore;
    ignore (Engine.step engine)
  in
  let msgs = sample_messages inp in
  let nmsgs = Array.length msgs in
  let map = layout_map inp in
  let spans = Array.of_list (List.map fst inp.layout) in
  let learn_map = layout_map inp in
  let mine = cell 1 and theirs = cell 2 in
  let group = List.init (min 4 inp.snodes) (fun i -> i) in
  let cells =
    List.init inp.cells_per_snode (fun i ->
        let key = inp.keys.(i mod Array.length inp.keys) ^ "/" ^ string_of_int i in
        (key, Hash.string inp.space key, i * 2654435761, ()))
  in
  let hist = Histogram.create () in
  (* [Local_dht] grown to the workload's vnode count: the core kernel is
     the whole growth, [lookup] runs on its result. *)
  let grow () =
    let d =
      Local_dht.create ~space:inp.space ~pmin:Workloads.pmin ~vmin:Workloads.vmin ~rng:(Rng.of_int 7)
        ~first:(Vnode_id.make ~snode:0 ~vnode:0)
        ()
    in
    for i = 1 to inp.vnodes - 1 do
      ignore (Local_dht.add_vnode d ~id:(Vnode_id.make ~snode:(i mod inp.snodes) ~vnode:(i / inp.snodes)))
    done;
    d
  in
  let dht = grow () in
  let t name f = (name, Test.make ~name (Staged.stage f)) in
  [
    t "event_sim.step" step;
    t "snode.wire_size" (fun () -> ignore (Wire.size_bytes msgs.(next () mod nmsgs)));
    t "hashes.string" (fun () -> ignore (Hash.string inp.space inp.keys.(next () mod Array.length inp.keys)));
    t "hashspace.find_point" (fun () -> ignore (Point_map.find_point map points.(next ())));
    t "hashspace.learn" (fun () ->
        let i = next () in
        Point_map.learn learn_map spans.(i mod Array.length spans) (i land 7));
    t "core.lookup" (fun () -> ignore (Local_dht.lookup dht points.(next ())));
    t "core.grow" (fun () -> ignore (grow ()));
    t "kv.lww_merge" (fun () -> ignore (Versioned.merge ~mine ~theirs));
    t "replication.replicas" (fun () ->
        ignore
          (Placement.replicas ~rfactor:inp.rfactor ~n:inp.snodes ~primary:(next () mod inp.snodes)
             ~group_snodes:group));
    t "merkle.build" (fun () -> ignore (Merkle.build ~space:inp.space ~span:Span.root cells));
    t "telemetry.observe" (fun () -> Histogram.observe hist (float_of_int (next ()) *. 1e-6));
  ]

(* Runs every kernel; returns name -> cost. *)
let run inp =
  let named = tests inp in
  let cfg = Benchmark.cfg ~limit:400 ~quota:(Time.second 0.2) ~kde:None ~stabilize:false () in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.map
    (fun (name, test) ->
      let raw = Benchmark.all cfg instances test in
      let estimate instance =
        let res = Analyze.all ols instance raw in
        match Hashtbl.fold (fun _ r acc -> r :: acc) res [] with
        | r :: _ -> ( match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> nan)
        | [] -> nan
      in
      (name, { ns = estimate Instance.monotonic_clock; words = estimate Instance.minor_allocated }))
    named
