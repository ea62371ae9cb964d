(* Tests for Dht_report: Table, Csv, Ascii_chart. *)

module Table = Dht_report.Table
module Csv = Dht_report.Csv
module Chart = Dht_report.Ascii_chart

let check = Alcotest.check

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "23456" ];
  let s = Table.to_string t in
  check Alcotest.bool "header present" true (contains ~needle:"name" s);
  check Alcotest.bool "row present" true (contains ~needle:"alpha" s);
  check Alcotest.bool "underline present" true (contains ~needle:"----" s);
  (* Header, underline and the two rows. *)
  check Alcotest.int "rows" 4
    (List.length
       (List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' s)));
  (* Rows render in insertion order. *)
  let lines = String.split_on_char '\n' s in
  check Alcotest.bool "alpha before b" true
    (match lines with _ :: _ :: r1 :: _ -> contains ~needle:"alpha" r1 | _ -> false)

let test_table_validation () =
  Alcotest.check_raises "no headers" (Invalid_argument "Table.create: no headers")
    (fun () -> ignore (Table.create ~headers:[]));
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "width mismatch" (Invalid_argument "Table.add_row: width mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

(* --- Csv --- *)

let test_csv_escape () =
  check Alcotest.string "plain" "abc" (Csv.line [ "abc" ]);
  check Alcotest.string "comma" "\"a,b\"" (Csv.line [ "a,b" ]);
  check Alcotest.string "quote" "\"a\"\"b\"" (Csv.line [ "a\"b" ]);
  check Alcotest.string "newline" "\"a\nb\"" (Csv.line [ "a\nb" ]);
  check Alcotest.string "line" "a,\"b,c\",d" (Csv.line [ "a"; "b,c"; "d" ])

let test_csv_write_roundtrip () =
  let path = Filename.temp_file "dht_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write ~path ~header:[ "k"; "v" ] [ [ "a"; "1" ]; [ "b"; "2" ] ];
      let ic = open_in path in
      let lines = List.init 3 (fun _ -> input_line ic) in
      close_in ic;
      check Alcotest.(list string) "contents" [ "k,v"; "a,1"; "b,2" ] lines)

let test_csv_columns () =
  let path = Filename.temp_file "dht_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write_columns ~path ~header:[ "x"; "y" ] [ [| 1.; 2. |]; [| 10.; 20. |] ];
      let ic = open_in path in
      let l1 = input_line ic in
      let l2 = input_line ic in
      close_in ic;
      check Alcotest.string "header" "x,y" l1;
      check Alcotest.string "first row" "1,10" l2);
  Alcotest.check_raises "ragged" (Invalid_argument "Csv.write_columns: ragged columns")
    (fun () ->
      Csv.write_columns ~path:"/tmp/never.csv" ~header:[ "x"; "y" ]
        [ [| 1. |]; [| 1.; 2. |] ]);
  Alcotest.check_raises "empty" (Invalid_argument "Csv.write_columns: no columns")
    (fun () -> Csv.write_columns ~path:"/tmp/never.csv" ~header:[] [])

(* --- Ascii_chart --- *)

let test_chart_renders () =
  let s1 =
    Chart.series ~label:"linear" ~xs:[| 0.; 1.; 2.; 3. |] ~ys:[| 0.; 1.; 2.; 3. |]
  in
  let s2 =
    Chart.series ~label:"flat" ~xs:[| 0.; 1.; 2.; 3. |] ~ys:[| 1.; 1.; 1.; 1. |]
  in
  let out = Chart.render ~width:40 ~height:10 [ s1; s2 ] in
  check Alcotest.bool "legend has first label" true (contains ~needle:"linear" out);
  check Alcotest.bool "legend has second label" true (contains ~needle:"flat" out);
  check Alcotest.bool "has glyph *" true (contains ~needle:"*" out);
  check Alcotest.bool "has glyph o" true (contains ~needle:"o" out);
  check Alcotest.bool "axis line" true (contains ~needle:"+--" out)

let test_chart_degenerate () =
  (* A single constant point must not divide by zero. *)
  let s = Chart.series ~label:"dot" ~xs:[| 5. |] ~ys:[| 5. |] in
  let out = Chart.render ~width:20 ~height:5 [ s ] in
  check Alcotest.bool "rendered" true (String.length out > 0)

let test_chart_validation () =
  Alcotest.check_raises "empty series"
    (Invalid_argument "Ascii_chart.series: empty or mismatched arrays") (fun () ->
      ignore (Chart.series ~label:"x" ~xs:[||] ~ys:[||]));
  Alcotest.check_raises "mismatched"
    (Invalid_argument "Ascii_chart.series: empty or mismatched arrays") (fun () ->
      ignore (Chart.series ~label:"x" ~xs:[| 1. |] ~ys:[| 1.; 2. |]));
  Alcotest.check_raises "no series" (Invalid_argument "Ascii_chart.render: no series")
    (fun () -> ignore (Chart.render []))

let suite =
  [
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table validation" `Quick test_table_validation;
    Alcotest.test_case "csv escaping" `Quick test_csv_escape;
    Alcotest.test_case "csv write roundtrip" `Quick test_csv_write_roundtrip;
    Alcotest.test_case "csv columns" `Quick test_csv_columns;
    Alcotest.test_case "chart renders" `Quick test_chart_renders;
    Alcotest.test_case "chart degenerate input" `Quick test_chart_degenerate;
    Alcotest.test_case "chart validation" `Quick test_chart_validation;
  ]
