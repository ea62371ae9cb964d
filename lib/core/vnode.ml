open Dht_hashspace

type t = {
  id : Vnode_id.t;
  mutable group : Group_id.t;
  mutable spans : Span.t list;
  mutable count : int;
}

let make ~id ~group = { id; group; spans = []; count = 0 }

let quota space t =
  match t.spans with
  | [] -> 0.
  | s :: _ -> float_of_int t.count *. Span.quota space s

let add_span t span =
  t.spans <- span :: t.spans;
  t.count <- t.count + 1

let take_span t =
  match t.spans with
  | [] -> invalid_arg "Vnode.take_span: vnode owns no partition"
  | s :: rest ->
      t.spans <- rest;
      t.count <- t.count - 1;
      s

let split_spans space t ~previous =
  let halves =
    List.concat_map
      (fun s ->
        previous s;
        let a, b = Span.split space s in
        [ a; b ])
      t.spans
  in
  t.spans <- halves;
  t.count <- 2 * t.count
