(* Monomorphic tables with the generic table's hash: bucket and iteration
   order are exactly a generic table's, without its polymorphic compare. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type link = { base_latency : float; byte_time : float }

let link ~base_latency ~byte_time =
  if base_latency < 0. || byte_time < 0. then
    invalid_arg "Network.link: negative parameter";
  { base_latency; byte_time }

let gigabit = link ~base_latency:50e-6 ~byte_time:8e-9

(* One message/byte pair of the per-tag breakdown. *)
type cell = { mutable m : int; mutable b : int }

type verdict = Pass | Defer of float | Sink | Twice

(* Per-destination ingress occupancy: messages scheduled toward the node
   but not yet landed. *)
type ingress = { mutable depth : int; mutable high_water : int }

type t = {
  engine : Engine.t;
  link : link;
  loopback : float;
  faults : Fault.t option;
  mutable messages : int;
  mutable bytes : int;
  mutable locals : int;
  mutable batches : int;
  mutable batched_parts : int;
  mutable batch_saved : int;
  mutable sites : int;
  mutable ingress_limit : int;  (* 0 = unbounded *)
  mutable overflows : int;
  mutable probe :
    (site:int -> src:int -> dst:int -> tag:string option -> verdict) option;
  tags : cell Stbl.t;
  ingress : ingress Itbl.t;
}

let create ?(loopback = 1e-6) ?faults engine link =
  if loopback < 0. then invalid_arg "Network.create: negative loopback";
  {
    engine;
    link;
    loopback;
    faults;
    messages = 0;
    bytes = 0;
    locals = 0;
    batches = 0;
    batched_parts = 0;
    batch_saved = 0;
    sites = 0;
    ingress_limit = 0;
    overflows = 0;
    probe = None;
    tags = Stbl.create 32;
    ingress = Itbl.create 32;
  }

let faults t = t.faults


let charge c bytes =
  c.m <- c.m + 1;
  c.b <- c.b + bytes
  [@@inline]

let account_tag t tag bytes =
  match Stbl.find_opt t.tags tag with
  | Some c -> charge c bytes
  | None -> Stbl.add t.tags tag { m = 1; b = bytes }

let set_probe t probe = t.probe <- probe

let sites t = t.sites

let set_ingress_limit t n =
  if n < 0 then invalid_arg "Network.set_ingress_limit: negative limit";
  t.ingress_limit <- n

let ingress_cell t dst =
  match Itbl.find_opt t.ingress dst with
  | Some c -> c
  | None ->
      let c = { depth = 0; high_water = 0 } in
      Itbl.add t.ingress dst c;
      c

let max_ingress_high_water t =
  Itbl.fold (fun _ c acc -> max acc c.high_water) t.ingress 0

let ingress_overflows t = t.overflows

(* Bounded ingress: each delivery occupies one slot toward its destination
   from schedule time to landing. A delivery that would exceed the bound is
   dropped at the door and counted as an overflow — overload is loss, which
   the reliable layer turns into retransmissions, which is exactly the
   amplification loop the runtime's retry budgets must tame. [admit] takes
   the slot, or counts the refusal and returns [false]. *)
let admit t c =
  if c.depth >= t.ingress_limit then begin
    t.overflows <- t.overflows + 1;
    false
  end
  else begin
    c.depth <- c.depth + 1;
    if c.depth > c.high_water then c.high_water <- c.depth;
    true
  end

(* Each delivery schedules exactly one closure: [k] itself when nothing
   has to happen on landing. *)
let deliver t ~dst ~delay k =
  if t.ingress_limit = 0 then Engine.schedule t.engine ~delay k
  else
    let c = ingress_cell t dst in
    if admit t c then
      Engine.schedule t.engine ~delay (fun () ->
          c.depth <- c.depth - 1;
          k ())

(* Under a fault plan each delivery — the original and a possible injected
   duplicate — gets its own jitter, and evaporates if the destination is
   down when it lands. A gray-failed (slow) destination stretches the whole
   delivery latency by its service-time factor. The ingress check comes
   before the jitter draw: a refused delivery draws nothing. *)
let deliver_faulty t f ~dst ~delay ~factor k =
  if t.ingress_limit = 0 then
    Engine.schedule t.engine
      ~delay:((delay +. Fault.delay_noise f) *. factor)
      (fun () -> if not (Fault.absorb f ~dst) then k ())
  else
    let c = ingress_cell t dst in
    if admit t c then
      Engine.schedule t.engine
        ~delay:((delay +. Fault.delay_noise f) *. factor)
        (fun () ->
          c.depth <- c.depth - 1;
          if not (Fault.absorb f ~dst) then k ())

(* One landing of a remote send: under a fault plan, its drop roll, its
   jitter and a possible injected duplicate. *)
let dispatch t ~dst ~delay k =
  match t.faults with
  | None -> deliver t ~dst ~delay k
  | Some f ->
      (* Loss at send time: a drop roll. *)
      if not (Fault.cut f) then begin
        let factor = Fault.slow_factor f ~dst in
        deliver_faulty t f ~dst ~delay ~factor k;
        if Fault.duplicate f then deliver_faulty t f ~dst ~delay ~factor k
      end

let send t ?tag ~src ~dst ~bytes k =
  if bytes < 0 then invalid_arg "Network.send: negative size";
  if src = dst then begin
    t.locals <- t.locals + 1;
    Engine.schedule t.engine ~delay:t.loopback k
  end
  else begin
    let delay =
      t.link.base_latency +. (t.link.byte_time *. float_of_int bytes)
    in
    t.messages <- t.messages + 1;
    t.bytes <- t.bytes + bytes;
    (match tag with Some tag -> account_tag t tag bytes | None -> ());
    (* Every remote send is a numbered decision site; a schedule explorer's
       probe may perturb it. The verdict only shapes delivery — all the
       accounting above already counted the send. *)
    let site = t.sites in
    t.sites <- t.sites + 1;
    let verdict =
      match t.probe with None -> Pass | Some p -> p ~site ~src ~dst ~tag
    in
    match verdict with
    | Sink -> ()
    | Pass -> dispatch t ~dst ~delay k
    | Defer extra -> dispatch t ~dst ~delay:(delay +. extra) k
    | Twice ->
        dispatch t ~dst ~delay k;
        dispatch t ~dst ~delay k
  end

(* A coalesced envelope is one wire message; the transmission-batching
   layer reports how many protocol parts rode in it and how many envelope
   bytes the amortization saved versus sending each part alone. *)
let account_batch t ~parts ~saved =
  if parts < 1 || saved < 0 then
    invalid_arg "Network.account_batch: bad accounting";
  t.batches <- t.batches + 1;
  t.batched_parts <- t.batched_parts + parts;
  t.batch_saved <- t.batch_saved + saved

let messages t = t.messages
let bytes_sent t = t.bytes
let local_deliveries t = t.locals
let batches t = t.batches
let batched_parts t = t.batched_parts
let batch_bytes_saved t = t.batch_saved

let per_tag t =
  Stbl.fold (fun tag c acc -> (tag, c.m, c.b) :: acc) t.tags []
  |> List.sort compare

let reset_counters t =
  t.messages <- 0;
  t.bytes <- 0;
  t.locals <- 0;
  t.batches <- 0;
  t.batched_parts <- 0;
  t.batch_saved <- 0;
  t.overflows <- 0;
  (* Occupancy is live state (in-flight deliveries still hold slots), so
     only the high-water marks rebase — to the current depth, not zero. *)
  Itbl.iter (fun _ c -> c.high_water <- c.depth) t.ingress;
  Stbl.reset t.tags
