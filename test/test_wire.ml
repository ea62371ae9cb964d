(* Wire protocol: size estimates and trace tags for every constructor.

   There is no serialization codec (messages travel as OCaml values through
   the simulated network), so the contract under test is the size model —
   every constructor must charge at least the envelope, payload bytes must
   be counted, and the reliable-layer framing must add only its own header
   on top of the inner message.

   The sweep is exhaustive BY CONSTRUCTION: [canonical] and [inflate]
   match every constructor with no wildcard, so adding a message to
   {!Wire.msg} without accounting for it here fails compilation (the dev
   profile promotes the non-exhaustive-match warning to an error), and the
   coverage test fails at runtime if [all_messages] misses one. *)

module Wire = Dht_snode.Wire
module Versioned = Dht_kv.Versioned
open Dht_core
open Dht_hashspace

let check = Alcotest.check
let vid i = Vnode_id.make ~snode:i ~vnode:0
let gid value bits = Group_id.make ~value ~bits
let cell value = Versioned.cell ~value ~ts:1.0 ~origin:0 ()

let sample_plan =
  Plan.creation ~pmin:8 ~counts:[ (vid 0, 10); (vid 1, 9) ] ~newcomer:(vid 2)

let sample_split =
  {
    Wire.parent = Group_id.root;
    left = gid 0 1;
    left_members = [ (vid 0, 8) ];
    right = gid 1 1;
    right_members = [ (vid 1, 8) ];
  }

let prepare ~split =
  Wire.Prepare
    {
      event = 3;
      split;
      target = Group_id.root;
      level_before = 0;
      epoch_before = 4;
      plan = sample_plan;
      newcomer = vid 2;
      donor_batches = 1;
    }

let moved = [ (Span.root, vid 1, [ 1; 2; 3 ]) ]

let sample_summary origin =
  Dht_balance.Summary.make ~origin ~version:3 ~heat:1.5 ~queue:2 ~partitions:4
    ~stamped:0.25

let remove_prepare ~moves =
  Wire.Remove_prepare
    {
      event = 7;
      group = Group_id.root;
      leaving = vid 1;
      epoch_before = 2;
      moves;
      remaining = [ (vid 0, 16) ];
    }

(* One distinct index per constructor (routed ops fold into [Routed]).
   No wildcard: extending {!Wire.msg} or {!Wire.routed_op} breaks this
   match at compile time, which is the point — new messages must be added
   to the sweep. Keep [constructor_count] in step with the largest index;
   the coverage test cross-checks both against [all_messages]. *)
let canonical = function
  | Wire.Routed { op = Wire.Op_create _; _ } -> 0
  | Wire.Routed { op = Wire.Op_put _; _ } -> 1
  | Wire.Routed { op = Wire.Op_get _; _ } -> 2
  | Wire.Routed { op = Wire.Op_sync _; _ } -> 3
  | Wire.Create_at_group _ -> 4
  | Wire.Prepare _ -> 5
  | Wire.Prepare_ack _ -> 6
  | Wire.Transfer _ -> 7
  | Wire.All_received _ -> 8
  | Wire.Commit _ -> 9
  | Wire.Create_done _ -> 10
  | Wire.Remove_request _ -> 11
  | Wire.Remove_at_group _ -> 12
  | Wire.Remove_prepare _ -> 13
  | Wire.Remove_done _ -> 14
  | Wire.Put_ack _ -> 15
  | Wire.Get_reply _ -> 16
  | Wire.Repl_put _ -> 17
  | Wire.Repl_put_ack _ -> 18
  | Wire.Repl_get _ -> 19
  | Wire.Repl_get_reply _ -> 20
  | Wire.Repl_hinted _ -> 21
  | Wire.Hint_flush _ -> 22
  | Wire.Hint_ack _ -> 23
  | Wire.Repl_repair _ -> 24
  | Wire.Repl_sync _ -> 25
  | Wire.Ae_request -> 26
  | Wire.Req _ -> 27
  | Wire.Ack _ -> 28
  | Wire.Lpdr_pull _ -> 29
  | Wire.Lpdr_push _ -> 30
  | Wire.Batch _ -> 31
  | Wire.Busy _ -> 32
  | Wire.Traced _ -> 33
  | Wire.Lb_report _ -> 34
  | Wire.Lb_proposal _ -> 35
  | Wire.Lb_transfer _ -> 36
  | Wire.Lb_swap _ -> 37
  | Wire.Mt_root _ -> 38
  | Wire.Mt_request _ -> 39
  | Wire.Mt_frames _ -> 40
  | Wire.Mt_leaf _ -> 41
  | Wire.Mt_want _ -> 42
  | Wire.Range_get _ -> 43
  | Wire.Range_reply _ -> 44

let constructor_count = 45

(* The same message with a strictly larger variable-size payload, or the
   message itself when the constructor is fixed-size. Also wildcard-free,
   so a new constructor must decide its inflation here too. *)
let big = String.make 64 'x'

let inflate = function
  | Wire.Routed ({ op = Wire.Op_create _; _ } as r) -> Wire.Routed r
  | Wire.Routed ({ op = Wire.Op_put p; _ } as r) ->
      Wire.Routed { r with op = Wire.Op_put { p with value = big } }
  | Wire.Routed ({ op = Wire.Op_get g; _ } as r) ->
      Wire.Routed { r with op = Wire.Op_get { g with key = big } }
  | Wire.Routed ({ op = Wire.Op_sync s; _ } as r) ->
      Wire.Routed { r with op = Wire.Op_sync { s with cell = cell big } }
  | Wire.Create_at_group _ as m -> m
  | Wire.Prepare _ -> prepare ~split:(Some sample_split)
  | Wire.Prepare_ack p -> Wire.Prepare_ack { p with moved = moved @ p.moved }
  | Wire.Transfer tr ->
      Wire.Transfer { tr with data = ("extra", cell big) :: tr.data }
  | Wire.All_received _ as m -> m
  | Wire.Commit c -> Wire.Commit { c with moved = moved @ c.moved }
  | Wire.Create_done _ as m -> m
  | Wire.Remove_request _ as m -> m
  | Wire.Remove_at_group _ as m -> m
  | Wire.Remove_prepare rp ->
      Wire.Remove_prepare
        { rp with moves = { Plan.src = vid 1; dst = vid 0; n = 2 } :: rp.moves }
  | Wire.Remove_done _ as m -> m
  | Wire.Put_ack p -> Wire.Put_ack { p with hint = Some (Span.root, vid 1) }
  | Wire.Get_reply g -> Wire.Get_reply { g with value = Some big }
  | Wire.Busy _ as m -> m
  | Wire.Repl_put p -> Wire.Repl_put { p with cell = cell big }
  | Wire.Repl_put_ack _ as m -> m
  | Wire.Repl_get g -> Wire.Repl_get { g with key = big }
  | Wire.Repl_get_reply g -> Wire.Repl_get_reply { g with cell = Some (cell big) }
  | Wire.Repl_hinted h -> Wire.Repl_hinted { h with cell = cell big }
  | Wire.Hint_flush h -> Wire.Hint_flush { h with cell = cell big }
  | Wire.Hint_ack _ -> Wire.Hint_ack { key = big }
  | Wire.Repl_repair r -> Wire.Repl_repair { r with cell = cell big }
  | Wire.Repl_sync s ->
      Wire.Repl_sync { cells = ("extra", cell big) :: s.cells }
  | Wire.Ae_request as m -> m
  | Wire.Req r -> Wire.Req { r with payload = Wire.Commit { event = 0; moved } }
  | Wire.Ack _ as m -> m
  | Wire.Batch parts -> Wire.Batch (Wire.Ae_request :: parts)
  | Wire.Traced t ->
      Wire.Traced { t with payload = Wire.Commit { event = 0; moved } }
  | Wire.Lpdr_pull _ as m -> m
  | Wire.Lpdr_push p ->
      Wire.Lpdr_push
        { p with view = Some (0, 4, [ (vid 0, 16); (vid 1, 16) ]) }
  | Wire.Lb_report r ->
      Wire.Lb_report { r with entries = sample_summary 9 :: r.entries }
  | Wire.Lb_proposal _ as m -> m
  | Wire.Lb_transfer _ as m -> m
  | Wire.Lb_swap _ as m -> m
  | Wire.Mt_root _ as m -> m
  | Wire.Mt_request r ->
      Wire.Mt_request { spans = Span.root :: r.spans }
  | Wire.Mt_frames f ->
      Wire.Mt_frames { frames = (Span.root, 1, 0xbeef, true) :: f.frames }
  | Wire.Mt_leaf l -> Wire.Mt_leaf { l with keys = (big, 0xf00d) :: l.keys }
  | Wire.Mt_want w -> Wire.Mt_want { w with keys = big :: w.keys }
  | Wire.Range_get _ as m -> m
  | Wire.Range_reply r ->
      Wire.Range_reply { r with cells = ("extra", cell big) :: r.cells }

(* One representative of every constructor (all four routed ops). *)
let all_messages =
  [
    Wire.Routed
      { point = 5; hops = 1; retries = 0; origin = 0;
        op = Wire.Op_create { newcomer = vid 2 } };
    Wire.Routed
      { point = 5; hops = 0; retries = 0; origin = 0;
        op = Wire.Op_put { key = "k"; value = "v"; token = 1 } };
    Wire.Routed
      { point = 5; hops = 0; retries = 1; origin = 0;
        op = Wire.Op_get { key = "k"; token = 2 } };
    Wire.Routed
      { point = 5; hops = 0; retries = 0; origin = 0;
        op = Wire.Op_sync { key = "k"; cell = cell "v" } };
    Wire.Create_at_group
      { group = Group_id.root; point = 5; newcomer = vid 2; origin = 0 };
    prepare ~split:None;
    Wire.Prepare_ack { event = 3; moved };
    Wire.Transfer
      { event = 3; to_vnode = vid 2; spans = [ Span.root ];
        data = [ ("k", cell "v") ] };
    Wire.All_received { event = 3 };
    Wire.Commit { event = 3; moved };
    Wire.Create_done { newcomer = vid 2 };
    Wire.Remove_request { leaving = vid 1; origin = 0; token = 3 };
    Wire.Remove_at_group
      { group = Group_id.root; leaving = vid 1; origin = 0; token = 3 };
    remove_prepare ~moves:[ { Plan.src = vid 1; dst = vid 0; n = 2 } ];
    Wire.Remove_done { token = 3; ok = true };
    Wire.Put_ack { token = 1; hint = None };
    Wire.Get_reply { token = 2; value = Some "v"; hint = None };
    Wire.Busy { token = 6 };
    Wire.Repl_put { token = 4; key = "k"; point = 5; cell = cell "v" };
    Wire.Repl_put_ack { token = 4 };
    Wire.Repl_get { token = 5; key = "k"; point = 5 };
    Wire.Repl_get_reply { token = 5; cell = Some (cell "v") };
    Wire.Repl_hinted
      { token = 4; target = 2; key = "k"; point = 5; cell = cell "v" };
    Wire.Hint_flush { key = "k"; point = 5; cell = cell "v" };
    Wire.Hint_ack { key = "k" };
    Wire.Repl_repair { key = "k"; point = 5; cell = cell "v" };
    Wire.Repl_sync { cells = [ ("k", cell "v") ] };
    Wire.Ae_request;
    Wire.Req { seq = 9; relay = -1; payload = Wire.All_received { event = 3 } };
    Wire.Ack { seq = 9; floor = 9 };
    Wire.Batch
      [ Wire.Put_ack { token = 1; hint = None };
        Wire.Ack { seq = 9; floor = 9 } ];
    Wire.Traced { trace = 1; span = 2; hop = 0; payload = Wire.Ae_request };
    Wire.Lpdr_pull { group = Group_id.root };
    Wire.Lpdr_push
      { group = Group_id.root; view = Some (0, 4, [ (vid 0, 16) ]) };
    Wire.Lb_report
      { origin = 1; pull = true; entries = [ sample_summary 1 ]; owns = [] };
    Wire.Lb_proposal { to_snode = 2; emergency = false };
    Wire.Lb_transfer
      { group = Group_id.root; hot = Span.root; from_vnode = vid 1;
        to_snode = 2; origin = 3 };
    Wire.Lb_swap
      { event = 3; hot = Span.root; from_vnode = vid 1; to_vnode = vid 2 };
    Wire.Mt_root { round = 1; span = Span.root; count = 9; vhash = 0xc0de };
    Wire.Mt_request { spans = [ Span.root ] };
    Wire.Mt_frames { frames = [ (Span.root, 4, 0xcafe, false) ] };
    Wire.Mt_leaf { span = Span.root; keys = [ ("k", 0xd00d) ] };
    Wire.Mt_want { span = Span.root; keys = [ "k" ] };
    Wire.Range_get { token = 7; lo = 0; hi = 1024 };
    Wire.Range_reply { token = 7; lo = 0; cells = [ ("k", cell "v") ] };
  ]

let test_complete_coverage () =
  (* Every constructor appears in the sweep exactly once, and the index
     space is dense: forgetting a sample (or the count bump that goes with
     a new constructor) fails here; forgetting the constructor entirely
     fails compilation of [canonical]/[inflate]. *)
  let indices = List.sort_uniq compare (List.map canonical all_messages) in
  check Alcotest.int "one sample per constructor" constructor_count
    (List.length indices);
  check Alcotest.bool "indices dense in [0, count)" true
    (List.for_all (fun i -> i >= 0 && i < constructor_count) indices);
  check Alcotest.int "no duplicate samples" constructor_count
    (List.length all_messages)

let test_every_constructor_sized () =
  List.iter
    (fun m ->
      check Alcotest.bool
        (Printf.sprintf "size of %s positive" (Wire.describe m))
        true
        (Wire.size_bytes m > 0))
    all_messages

let test_tags_distinct () =
  (* [Traced] is tag-transparent by design — traffic accounting by tag must
     not change when causal tracing is switched on — so it is excluded from
     the distinctness check (its tag is its payload's). *)
  let untraced =
    List.filter (function Wire.Traced _ -> false | _ -> true) all_messages
  in
  let tags = List.map Wire.describe untraced in
  List.iter
    (fun tag -> check Alcotest.bool "tag nonempty" true (String.length tag > 0))
    tags;
  let distinct = List.sort_uniq compare tags in
  check Alcotest.int "tags distinguish constructors" (List.length tags)
    (List.length distinct);
  check Alcotest.string "traced frames keep the payload tag" "ae-request"
    (Wire.describe
       (Wire.Traced { trace = 1; span = 2; hop = 0; payload = Wire.Ae_request }))

let test_inflate_monotonic () =
  (* Growing any variable-size payload must grow the estimate; fixed-size
     constructors inflate to themselves and stay put. *)
  List.iter
    (fun m ->
      let m' = inflate m in
      if m' = m then
        check Alcotest.int
          (Printf.sprintf "%s is fixed-size" (Wire.describe m))
          (Wire.size_bytes m) (Wire.size_bytes m')
      else
        check Alcotest.bool
          (Printf.sprintf "payload grows %s" (Wire.describe m))
          true
          (Wire.size_bytes m' > Wire.size_bytes m))
    all_messages

let test_payload_monotonic () =
  let size = Wire.size_bytes in
  let put key value =
    Wire.Routed
      { point = 0; hops = 0; retries = 0; origin = 0;
        op = Wire.Op_put { key; value; token = 0 } }
  in
  check Alcotest.int "put charges payload bytes"
    (size (put "k" "v") + 120)
    (size (put "k" (String.make 121 'x')));
  let transfer data =
    Wire.Transfer { event = 0; to_vnode = vid 2; spans = []; data }
  in
  check Alcotest.bool "transfer charges data" true
    (size (transfer [ ("key", cell (String.make 100 'x')) ])
    > size (transfer []) + 100);
  check Alcotest.bool "split enlarges prepare" true
    (size (prepare ~split:(Some sample_split)) > size (prepare ~split:None));
  check Alcotest.bool "moves enlarge remove-prepare" true
    (size (remove_prepare ~moves:[ { Plan.src = vid 1; dst = vid 0; n = 2 } ])
    > size (remove_prepare ~moves:[]));
  let push view = Wire.Lpdr_push { group = Group_id.root; view } in
  check Alcotest.bool "lpdr view counted" true
    (size (push (Some (0, 4, [ (vid 0, 16); (vid 1, 16) ])))
    > size (push None));
  let commit moved = Wire.Commit { event = 0; moved } in
  check Alcotest.bool "commit moves counted" true
    (size (commit moved) > size (commit []));
  check Alcotest.int "span context charges 20 bytes"
    (size Wire.Ae_request + 20)
    (size (Wire.Traced { trace = 1; span = 2; hop = 0; payload = Wire.Ae_request }));
  check Alcotest.bool "replica sets enlarge commits" true
    (size (commit [ (Span.root, vid 1, [ 1; 2; 3 ]) ])
    > size (commit [ (Span.root, vid 1, [ 1 ]) ]));
  (* Piggybacked routing fields are free when absent and charged when
     present: legacy traffic keeps its exact byte counts. *)
  let ack hint = Wire.Put_ack { token = 1; hint } in
  check Alcotest.int "absent hint is free"
    (size (ack None))
    (size (Wire.Get_reply { token = 1; value = None; hint = None }));
  check Alcotest.int "hint charges two entries"
    (size (ack None) + 32)
    (size (ack (Some (Span.root, vid 1))));
  let report owns =
    Wire.Lb_report { origin = 1; pull = false; entries = []; owns }
  in
  check Alcotest.int "owns charge two entries each"
    (size (report []) + 64)
    (size (report [ (Span.root, vid 1); (Span.root, vid 2) ]))

let test_req_framing () =
  (* The reliable frame adds a fixed header to any inner message and keeps
     its tag visible for tracing — checked for the whole sweep, so new
     messages cannot dodge the framing contract. *)
  List.iter
    (fun inner ->
      let framed = Wire.Req { seq = 1; relay = -1; payload = inner } in
      check Alcotest.int
        (Printf.sprintf "req header on %s is 16 bytes" (Wire.describe inner))
        (Wire.size_bytes inner + 16)
        (Wire.size_bytes framed);
      check Alcotest.int
        (Printf.sprintf "a relayed ack on %s adds 16 bytes" (Wire.describe inner))
        (Wire.size_bytes inner + 32)
        (Wire.size_bytes (Wire.Req { seq = 1; relay = 0; payload = inner }));
      check Alcotest.string "req tag nests"
        ("req:" ^ Wire.describe inner)
        (Wire.describe framed))
    all_messages;
  check Alcotest.string "double framing nests twice" "req:req:commit"
    (Wire.describe
       (Wire.Req
          { seq = 2; relay = -1;
            payload =
              Wire.Req { seq = 1; relay = -1; payload = Wire.Commit { event = 3; moved } } }));
  check Alcotest.string "ack tag" "ack"
    (Wire.describe (Wire.Ack { seq = 1; floor = 1 }))

let suite =
  [
    Alcotest.test_case "sweep covers every constructor" `Quick
      test_complete_coverage;
    Alcotest.test_case "every constructor has positive size" `Quick
      test_every_constructor_sized;
    Alcotest.test_case "describe tags are distinct" `Quick test_tags_distinct;
    Alcotest.test_case "inflated payloads grow the estimate" `Quick
      test_inflate_monotonic;
    Alcotest.test_case "payload bytes are charged" `Quick
      test_payload_monotonic;
    Alcotest.test_case "reliable frame adds only a header" `Quick
      test_req_framing;
  ]
