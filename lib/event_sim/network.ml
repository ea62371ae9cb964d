type link = { base_latency : float; byte_time : float }

let link ~base_latency ~byte_time =
  if base_latency < 0. || byte_time < 0. then
    invalid_arg "Network.link: negative parameter";
  { base_latency; byte_time }

let gigabit = link ~base_latency:50e-6 ~byte_time:8e-9

(* One message/byte pair, used for both the per-tag and the per-destination
   breakdowns. *)
type cell = { mutable m : int; mutable b : int }

type verdict = Pass | Defer of float | Sink

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
  tags : (string, cell) Hashtbl.t;
  dests : (int, cell) Hashtbl.t;
  ingress : (int, ingress) Hashtbl.t;
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
    tags = Hashtbl.create 32;
    dests = Hashtbl.create 32;
    ingress = Hashtbl.create 32;
  }

let faults t = t.faults

let quantum t = t.link.base_latency

let transit_time t ~src ~dst ~bytes =
  if bytes < 0 then invalid_arg "Network.transit_time: negative size";
  if src = dst then t.loopback
  else t.link.base_latency +. (t.link.byte_time *. float_of_int bytes)

let account tbl key bytes =
  (match Hashtbl.find_opt tbl key with
  | Some c ->
      c.m <- c.m + 1;
      c.b <- c.b + bytes
  | None -> Hashtbl.add tbl key { m = 1; b = bytes })
  [@@inline]

let set_probe t probe = t.probe <- probe

let sites t = t.sites

let set_ingress_limit t n =
  if n < 0 then invalid_arg "Network.set_ingress_limit: negative limit";
  t.ingress_limit <- n

let ingress_cell t dst =
  match Hashtbl.find_opt t.ingress dst with
  | Some c -> c
  | None ->
      let c = { depth = 0; high_water = 0 } in
      Hashtbl.add t.ingress dst c;
      c

let ingress_depth t ~dst =
  match Hashtbl.find_opt t.ingress dst with Some c -> c.depth | None -> 0

let ingress_high_water t ~dst =
  match Hashtbl.find_opt t.ingress dst with Some c -> c.high_water | None -> 0

let max_ingress_high_water t =
  Hashtbl.fold (fun _ c acc -> max acc c.high_water) t.ingress 0

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

let send t ?tag ~src ~dst ~bytes k =
  let delay = transit_time t ~src ~dst ~bytes in
  if src = dst then begin
    t.locals <- t.locals + 1;
    Engine.schedule t.engine ~delay k
  end
  else begin
    t.messages <- t.messages + 1;
    t.bytes <- t.bytes + bytes;
    (match tag with Some tag -> account t.tags tag bytes | None -> ());
    account t.dests dst bytes;
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
    | Pass | Defer _ -> (
        let delay =
          match verdict with Defer extra -> delay +. extra | _ -> delay
        in
        match t.faults with
        | None -> deliver t ~dst ~delay k
        | Some f ->
            (* Loss at send time: a severed link or a drop roll. *)
            if not (Fault.cut f ~src ~dst) then begin
              let factor = Fault.slow_factor f ~dst in
              deliver_faulty t f ~dst ~delay ~factor k;
              if Fault.duplicate f then deliver_faulty t f ~dst ~delay ~factor k
            end)
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
  Hashtbl.fold (fun tag c acc -> (tag, c.m, c.b) :: acc) t.tags []
  |> List.sort compare

let per_destination t =
  Hashtbl.fold (fun dst c acc -> (dst, c.m, c.b) :: acc) t.dests []
  |> List.sort compare

let messages_to t ~dst =
  match Hashtbl.find_opt t.dests dst with Some c -> c.m | None -> 0

let bytes_to t ~dst =
  match Hashtbl.find_opt t.dests dst with Some c -> c.b | None -> 0

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
  Hashtbl.iter (fun _ c -> c.high_water <- c.depth) t.ingress;
  Hashtbl.reset t.tags;
  Hashtbl.reset t.dests
