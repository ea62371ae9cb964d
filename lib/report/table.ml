type t = { headers : string list; mutable rows : string list list }

let create ~headers =
  if headers = [] then invalid_arg "Table.create: no headers";
  { headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: width mismatch";
  t.rows <- row :: t.rows

let to_string t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell ->
         if String.length cell > widths.(i) then widths.(i) <- String.length cell))
    all;
  let buf = Buffer.create 256 in
  let put_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  put_row t.headers;
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (String.make w '-'))
    (Array.to_list widths);
  Buffer.add_char buf '\n';
  List.iter put_row rows;
  Buffer.contents buf

let print t = print_string (to_string t)
