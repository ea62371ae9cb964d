open Dht_core
open Dht_hashspace
module Versioned = Dht_kv.Versioned

type routed_op =
  | Op_create of { newcomer : Vnode_id.t }
  | Op_put of { key : string; value : string; token : int }
  | Op_get of { key : string; token : int }
  | Op_sync of { key : string; cell : Versioned.cell }

type group_split = {
  parent : Group_id.t;
  left : Group_id.t;
  left_members : Plan.lpdr;
  right : Group_id.t;
  right_members : Plan.lpdr;
}

type prepare = {
  event : int;
  split : group_split option;
  target : Group_id.t;
  level_before : int;
  epoch_before : int;
  plan : Plan.t;
  newcomer : Vnode_id.t;
  donor_batches : int;
}

type placement = (Span.t * Vnode_id.t * int list) list

type msg =
  | Routed of { point : int; hops : int; retries : int; origin : int; op : routed_op }
  | Create_at_group of {
      group : Group_id.t;
      point : int;
      newcomer : Vnode_id.t;
      origin : int;
    }
  | Prepare of prepare
  | Prepare_ack of { event : int; moved : placement }
  | Transfer of {
      event : int;
      to_vnode : Vnode_id.t;
      spans : Span.t list;
      data : (string * Versioned.cell) list;
    }
  | All_received of { event : int }
  | Commit of { event : int; moved : placement }
  | Create_done of { newcomer : Vnode_id.t }
  | Remove_request of { leaving : Vnode_id.t; origin : int; token : int }
  | Remove_at_group of {
      group : Group_id.t;
      leaving : Vnode_id.t;
      origin : int;
      token : int;
    }
  | Remove_prepare of {
      event : int;
      group : Group_id.t;
      leaving : Vnode_id.t;
      epoch_before : int;
      moves : Plan.move list;
      remaining : Plan.lpdr;
    }
  | Remove_done of { token : int; ok : bool }
  | Put_ack of { token : int; hint : (Span.t * Vnode_id.t) option }
  | Get_reply of {
      token : int;
      value : string option;
      hint : (Span.t * Vnode_id.t) option;
    }
  | Busy of { token : int }
  | Repl_put of { token : int; key : string; point : int; cell : Versioned.cell }
  | Repl_put_ack of { token : int }
  | Repl_get of { token : int; key : string; point : int }
  | Repl_get_reply of { token : int; cell : Versioned.cell option }
  | Repl_hinted of {
      token : int;
      target : int;
      key : string;
      point : int;
      cell : Versioned.cell;
    }
  | Hint_flush of { key : string; point : int; cell : Versioned.cell }
  | Hint_ack of { key : string }
  | Repl_repair of { key : string; point : int; cell : Versioned.cell }
  | Repl_sync of { cells : (string * Versioned.cell) list }
  | Ae_request
  | Mt_root of { round : int; span : Span.t; count : int; vhash : int }
      (* tree-descent opener: the pusher's root frame for one partition
         span, plus its AE round so the receiver knows when to take a
         fresh snapshot of its own store *)
  | Mt_request of { spans : Span.t list }
      (* "descend here": subtree spans whose frames disagreed *)
  | Mt_frames of { frames : (Span.t * int * int * bool) list }
      (* (span, count, hash, leaf?) children frames for requested spans *)
  | Mt_leaf of { span : Span.t; keys : (string * int) list }
      (* divergent leaf: the sender's per-key cell digests in the span *)
  | Mt_want of { span : Span.t; keys : string list }
      (* "ship me your cells for these keys" — closes the exchange *)
  | Range_get of { token : int; lo : int; hi : int }
  | Range_reply of {
      token : int;
      lo : int;  (* clipped sub-range start: identifies the partition leg *)
      cells : (string * Versioned.cell) list;
    }
  | Traced of { trace : int; span : int; hop : int; payload : msg }
  | Batch of msg list
  | Req of { seq : int; relay : int; payload : msg }
  | Ack of { seq : int; floor : int }
  | Lpdr_pull of { group : Group_id.t }
  | Lpdr_push of {
      group : Group_id.t;
      view : (int * int * Plan.lpdr) option;
    }
  | Lb_report of {
      origin : int;
      pull : bool;
      entries : Dht_balance.Summary.t list;
      owns : (Span.t * Vnode_id.t) list;
          (* piggybacked routing-table refresh: exact owned placements for
             the receiving steward's prefix regions; [] on pure load
             gossip, so the balancer's bytes are untouched *)
    }
  | Lb_proposal of { to_snode : int; emergency : bool }
  | Lb_transfer of {
      group : Group_id.t;
      hot : Span.t;
      from_vnode : Vnode_id.t;
      to_snode : int;
      origin : int;
    }
  | Lb_swap of {
      event : int;
      hot : Span.t;
      from_vnode : Vnode_id.t;
      to_vnode : Vnode_id.t;
    }

let envelope = 64
let per_entry = 16

let summary_size = 2 * per_entry
(** One gossiped load summary on the wire: origin, version stamp, heat,
    queue depth, partition count and produce time — six numeric fields,
    charged as two id entries. *)

let trace_context = 20
(** Serialized span context riding a {!Traced} wrapper: a 64-bit trace id,
    a 64-bit span id and a 32-bit hop count. Charged on top of the payload
    so tracing overhead is visible in the byte accounting. *)

let placement_size moved =
  List.fold_left
    (fun acc (_, _, replicas) ->
      acc + (per_entry * (2 + List.length replicas)))
    0 moved

(* A corrected-owner routing hint riding a data reply: one (span, vnode)
   placement entry, charged only when present so the unhinted reply costs
   exactly what it always did. *)
let hint_size = function None -> 0 | Some _ -> 2 * per_entry

let cells_size cells =
  List.fold_left
    (fun acc (k, c) -> acc + per_entry + String.length k + Versioned.size_bytes c)
    0 cells

let rec size_bytes = function
  | Routed { op; _ } -> (
      match op with
      | Op_create _ -> envelope + per_entry
      | Op_put { key; value; _ } -> envelope + String.length key + String.length value
      | Op_get { key; _ } -> envelope + String.length key
      | Op_sync { key; cell } ->
          envelope + String.length key + Versioned.size_bytes cell)
  | Create_at_group _ -> envelope + (2 * per_entry)
  | Prepare { split; plan; _ } ->
      let split_size =
        match split with
        | None -> 0
        | Some s ->
            per_entry
            * (2 + List.length s.left_members + List.length s.right_members)
      in
      envelope + split_size + (per_entry * List.length plan.Plan.final_counts)
  | Prepare_ack { moved; _ } -> envelope + placement_size moved
  | Transfer { spans; data; _ } ->
      envelope + (per_entry * List.length spans) + cells_size data
  | All_received _ -> envelope
  | Commit { moved; _ } -> envelope + placement_size moved
  | Create_done _ -> envelope + per_entry
  | Remove_request _ -> envelope + per_entry
  | Remove_at_group _ -> envelope + (2 * per_entry)
  | Remove_prepare { moves; remaining; _ } ->
      envelope
      + (3 * per_entry * List.length moves)
      + (per_entry * List.length remaining)
  | Remove_done _ -> envelope
  | Put_ack { hint; _ } -> envelope + hint_size hint
  | Get_reply { value; hint; _ } ->
      envelope
      + Option.fold ~none:0 ~some:String.length value
      + hint_size hint
  | Busy _ -> envelope
  | Repl_put { key; cell; _ } ->
      envelope + String.length key + Versioned.size_bytes cell
  | Repl_put_ack _ -> envelope
  | Repl_get { key; _ } -> envelope + String.length key
  | Repl_get_reply { cell; _ } ->
      envelope + Option.fold ~none:0 ~some:Versioned.size_bytes cell
  | Repl_hinted { key; cell; _ } ->
      envelope + per_entry + String.length key + Versioned.size_bytes cell
  | Hint_flush { key; cell; _ } ->
      envelope + String.length key + Versioned.size_bytes cell
  | Hint_ack { key } -> envelope + String.length key
  | Repl_repair { key; cell; _ } ->
      envelope + String.length key + Versioned.size_bytes cell
  | Repl_sync { cells } -> envelope + cells_size cells
  | Ae_request -> envelope
  | Mt_root _ -> envelope + (3 * per_entry)
  | Mt_request { spans } -> envelope + (per_entry * List.length spans)
  | Mt_frames { frames } -> envelope + (2 * per_entry * List.length frames)
  | Mt_leaf { keys; _ } ->
      envelope + per_entry
      + List.fold_left
          (fun acc (k, _) -> acc + per_entry + String.length k)
          0 keys
  | Mt_want { keys; _ } ->
      envelope + per_entry
      + List.fold_left (fun acc k -> acc + per_entry + String.length k) 0 keys
  | Range_get _ -> envelope + (2 * per_entry)
  | Range_reply { cells; _ } -> envelope + (2 * per_entry) + cells_size cells
  | Traced { payload; _ } -> trace_context + size_bytes payload
  | Batch parts ->
      (* One shared envelope; each part pays a [per_entry] frame header and
         its body — its own envelope is amortized away. Coalescing [n]
         messages therefore saves [(n - 1) * envelope - n * per_entry]
         bytes versus sending them separately. *)
      List.fold_left
        (fun acc p -> acc + per_entry + (size_bytes p - envelope))
        envelope parts
  | Req { relay; payload; _ } ->
      (* A relayed ack rides the frame header as one more entry. *)
      (if relay < 0 then per_entry else 2 * per_entry) + size_bytes payload
  | Ack _ -> envelope
  | Lpdr_pull _ -> envelope + per_entry
  | Lpdr_push { view; _ } ->
      envelope + per_entry
      + (match view with
        | None -> 0
        | Some (_, _, counts) -> per_entry * (2 + List.length counts))
  | Lb_report { entries; owns; _ } ->
      envelope + per_entry
      + (summary_size * List.length entries)
      + (2 * per_entry * List.length owns)
  | Lb_proposal _ -> envelope + per_entry
  | Lb_transfer _ -> envelope + (3 * per_entry)
  | Lb_swap _ -> envelope + (3 * per_entry)

(* [describe] is the telemetry tag of every remote send, so it must not
   allocate: the single-level [Req] framing (the only one real traffic
   produces) resolves to static strings through [req_tag]. *)
let rec describe = function
  | Routed { op = Op_create _; _ } -> "routed:create"
  | Routed { op = Op_put _; _ } -> "routed:put"
  | Routed { op = Op_get _; _ } -> "routed:get"
  | Routed { op = Op_sync _; _ } -> "routed:sync"
  | Create_at_group _ -> "create-at-group"
  | Prepare _ -> "prepare"
  | Prepare_ack _ -> "prepare-ack"
  | Transfer _ -> "transfer"
  | All_received _ -> "all-received"
  | Commit _ -> "commit"
  | Create_done _ -> "create-done"
  | Remove_request _ -> "remove-request"
  | Remove_at_group _ -> "remove-at-group"
  | Remove_prepare _ -> "remove-prepare"
  | Remove_done _ -> "remove-done"
  | Put_ack _ -> "put-ack"
  | Get_reply _ -> "get-reply"
  | Busy _ -> "busy"
  | Repl_put _ -> "repl:put"
  | Repl_put_ack _ -> "repl:put-ack"
  | Repl_get _ -> "repl:get"
  | Repl_get_reply _ -> "repl:get-reply"
  | Repl_hinted _ -> "repl:hinted"
  | Hint_flush _ -> "repl:hint-flush"
  | Hint_ack _ -> "repl:hint-ack"
  | Repl_repair _ -> "repl:repair"
  | Repl_sync _ -> "repl:sync"
  | Ae_request -> "ae-request"
  | Mt_root _ -> "mt:root"
  | Mt_request _ -> "mt:request"
  | Mt_frames _ -> "mt:frames"
  | Mt_leaf _ -> "mt:leaf"
  | Mt_want _ -> "mt:want"
  | Range_get _ -> "range:get"
  | Range_reply _ -> "range:reply"
  | Traced { payload; _ } -> describe payload
  | Batch _ -> "batch"
  | Req { payload; _ } -> req_tag payload
  | Ack _ -> "ack"
  | Lpdr_pull _ -> "lpdr-pull"
  | Lpdr_push _ -> "lpdr-push"
  | Lb_report _ -> "lb:report"
  | Lb_proposal _ -> "lb:proposal"
  | Lb_transfer _ -> "lb:transfer"
  | Lb_swap _ -> "lb:swap"

and req_tag = function
  | Routed { op = Op_create _; _ } -> "req:routed:create"
  | Routed { op = Op_put _; _ } -> "req:routed:put"
  | Routed { op = Op_get _; _ } -> "req:routed:get"
  | Routed { op = Op_sync _; _ } -> "req:routed:sync"
  | Create_at_group _ -> "req:create-at-group"
  | Prepare _ -> "req:prepare"
  | Prepare_ack _ -> "req:prepare-ack"
  | Transfer _ -> "req:transfer"
  | All_received _ -> "req:all-received"
  | Commit _ -> "req:commit"
  | Create_done _ -> "req:create-done"
  | Remove_request _ -> "req:remove-request"
  | Remove_at_group _ -> "req:remove-at-group"
  | Remove_prepare _ -> "req:remove-prepare"
  | Remove_done _ -> "req:remove-done"
  | Put_ack _ -> "req:put-ack"
  | Get_reply _ -> "req:get-reply"
  | Busy _ -> "req:busy"
  | Repl_put _ -> "req:repl:put"
  | Repl_put_ack _ -> "req:repl:put-ack"
  | Repl_get _ -> "req:repl:get"
  | Repl_get_reply _ -> "req:repl:get-reply"
  | Repl_hinted _ -> "req:repl:hinted"
  | Hint_flush _ -> "req:repl:hint-flush"
  | Hint_ack _ -> "req:repl:hint-ack"
  | Repl_repair _ -> "req:repl:repair"
  | Repl_sync _ -> "req:repl:sync"
  | Ae_request -> "req:ae-request"
  | Mt_root _ -> "req:mt:root"
  | Mt_request _ -> "req:mt:request"
  | Mt_frames _ -> "req:mt:frames"
  | Mt_leaf _ -> "req:mt:leaf"
  | Mt_want _ -> "req:mt:want"
  | Range_get _ -> "req:range:get"
  | Range_reply _ -> "req:range:reply"
  | Traced { payload; _ } -> req_tag payload
  | Batch _ -> "req:batch"
  | Lpdr_pull _ -> "req:lpdr-pull"
  | Lpdr_push _ -> "req:lpdr-push"
  | Lb_report _ -> "req:lb:report"
  | Lb_proposal _ -> "req:lb:proposal"
  | Lb_transfer _ -> "req:lb:transfer"
  | Lb_swap _ -> "req:lb:swap"
  | Ack _ -> "req:ack"
  | Req _ as nested -> "req:" ^ describe nested
