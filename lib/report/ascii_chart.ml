type series = { label : string; xs : float array; ys : float array }

let series ~label ~xs ~ys =
  if Array.length xs = 0 || Array.length xs <> Array.length ys then
    invalid_arg "Ascii_chart.series: empty or mismatched arrays";
  { label; xs; ys }

let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&'; '$'; '~' |]

let bounds all =
  let lo = ref infinity and hi = ref neg_infinity in
  List.iter
    (Array.iter (fun v ->
         if v < !lo then lo := v;
         if v > !hi then hi := v))
    all;
  if !lo = !hi then (!lo -. 1., !hi +. 1.) else (!lo, !hi)

let render ?(width = 72) ?(height = 20) ?(x_label = "x") ?(y_label = "y")
    series_list =
  if series_list = [] then invalid_arg "Ascii_chart.render: no series";
  let xmin, xmax = bounds (List.map (fun s -> s.xs) series_list) in
  let ymin, ymax = bounds (List.map (fun s -> s.ys) series_list) in
  let grid = Array.make_matrix height width ' ' in
  let plot_x x =
    int_of_float
      (Float.round ((x -. xmin) /. (xmax -. xmin) *. float_of_int (width - 1)))
  in
  let plot_y y =
    height - 1
    - int_of_float
        (Float.round
           ((y -. ymin) /. (ymax -. ymin) *. float_of_int (height - 1)))
  in
  List.iteri
    (fun si s ->
      let glyph = glyphs.(si mod Array.length glyphs) in
      Array.iteri
        (fun i x ->
          let col = plot_x x and row = plot_y s.ys.(i) in
          if row >= 0 && row < height && col >= 0 && col < width then
            grid.(row).(col) <- glyph)
        s.xs)
    series_list;
  let buf = Buffer.create (width * height * 2) in
  Buffer.add_string buf
    (Printf.sprintf "%s vs %s  [y: %.4g .. %.4g]\n" y_label x_label ymin ymax);
  Array.iteri
    (fun row line ->
      let y_of_row =
        ymax -. (float_of_int row /. float_of_int (height - 1) *. (ymax -. ymin))
      in
      Buffer.add_string buf (Printf.sprintf "%10.3g |" y_of_row);
      Buffer.add_string buf (String.init width (fun c -> line.(c)));
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_string buf (String.make 11 ' ');
  Buffer.add_char buf '+';
  Buffer.add_string buf (String.make width '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%11s %-*.4g%*.4g\n" "" (width / 2) xmin (width - (width / 2))
       xmax);
  List.iteri
    (fun si s ->
      Buffer.add_string buf
        (Printf.sprintf "  %c %s\n" glyphs.(si mod Array.length glyphs) s.label))
    series_list;
  Buffer.contents buf

let print ?x_label ?y_label series_list =
  print_string (render ?x_label ?y_label series_list)
