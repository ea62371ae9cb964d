type counter = { mutable c : int }
type gauge = { mutable g : float }

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Hist of Histogram.t

type key = string * (string * string) list

type t = { tbl : (key, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let key name labels = (name, List.sort compare labels)

let find_or_add t ~name ~labels ~kind ~make ~cast =
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some i -> (
      match cast i with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf
               "Telemetry.Registry: %s already registered with another kind \
                (wanted %s)"
               name kind))
  | None ->
      let i, v = make () in
      Hashtbl.add t.tbl k i;
      v

let counter t ?(labels = []) name =
  find_or_add t ~name ~labels ~kind:"counter"
    ~make:(fun () ->
      let c = { c = 0 } in
      (Counter c, c))
    ~cast:(function Counter c -> Some c | Gauge _ | Hist _ -> None)

let inc c by = c.c <- c.c + by

let gauge t ?(labels = []) name =
  find_or_add t ~name ~labels ~kind:"gauge"
    ~make:(fun () ->
      let g = { g = 0. } in
      (Gauge g, g))
    ~cast:(function Gauge g -> Some g | Counter _ | Hist _ -> None)

let set g v = g.g <- v

let histogram t ?(labels = []) ?lo ?growth ?bins name =
  find_or_add t ~name ~labels ~kind:"histogram"
    ~make:(fun () ->
      let h = Histogram.create ?lo ?growth ?bins () in
      (Hist h, h))
    ~cast:(function Hist h -> Some h | Counter _ | Gauge _ -> None)

let is_empty t = Hashtbl.length t.tbl = 0

let histograms t ?(labels = []) name =
  Hashtbl.fold
    (fun (n, ls) instr acc ->
      match instr with
      | Hist h when n = name && List.for_all (fun kv -> List.mem kv ls) labels
        ->
          (ls, h) :: acc
      | Hist _ | Counter _ | Gauge _ -> acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let merged t ?labels name =
  match histograms t ?labels name with
  | [] -> None
  | h :: rest -> Some (List.fold_left Histogram.merge h rest)

type row = {
  name : string;
  labels : (string * string) list;
  kind : string;
  count : int;
  value : float;
  p50 : float;
  p99 : float;
  max : float;
}

let rows t =
  Hashtbl.fold
    (fun (name, labels) instr acc ->
      let row =
        match instr with
        | Counter c ->
            { name; labels; kind = "counter"; count = 1;
              value = float_of_int c.c; p50 = nan; p99 = nan; max = nan }
        | Gauge g ->
            { name; labels; kind = "gauge"; count = 1; value = g.g;
              p50 = nan; p99 = nan; max = nan }
        | Hist h ->
            { name; labels; kind = "histogram"; count = Histogram.count h;
              value = Histogram.mean h;
              p50 = Histogram.quantile h 0.5;
              p99 = Histogram.quantile h 0.99;
              max = Histogram.max_value h }
      in
      row :: acc)
    t.tbl []
  |> List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels))

let pp_labels labels =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)

let cell f = if Float.is_nan f then "-" else Printf.sprintf "%.6g" f

let to_table t =
  let table =
    Dht_report.Table.create
      ~headers:[ "metric"; "labels"; "kind"; "count"; "value"; "p50"; "p99"; "max" ]
  in
  List.iter
    (fun r ->
      Dht_report.Table.add_row table
        [
          r.name; pp_labels r.labels; r.kind; string_of_int r.count;
          cell r.value; cell r.p50; cell r.p99; cell r.max;
        ])
    (rows t);
  table

let csv_header =
  [ "metric"; "labels"; "kind"; "count"; "value"; "p50"; "p99"; "max" ]

let csv_rows t =
  List.map
    (fun r ->
      [
        r.name; pp_labels r.labels; r.kind; string_of_int r.count;
        cell r.value; cell r.p50; cell r.p99; cell r.max;
      ])
    (rows t)
