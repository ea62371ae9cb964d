type error =
  | Empty
  | Gap of { after : int; before : int }
  | Overlap of { a : Span.t; b : Span.t }
  | Out_of_space of Span.t

let pp_error ppf = function
  | Empty -> Format.fprintf ppf "no spans"
  | Gap { after; before } -> Format.fprintf ppf "gap in [%d, %d)" after before
  | Overlap { a; b } ->
      Format.fprintf ppf "overlap between %a and %a" Span.pp a Span.pp b
  | Out_of_space s -> Format.fprintf ppf "%a deeper than the space" Span.pp s

let check sp spans =
  match spans with
  | [] -> Error Empty
  | _ -> (
      match List.find_opt (fun s -> Span.level s > Space.max_level sp) spans with
      | Some s -> Error (Out_of_space s)
      | None ->
          let sorted = List.sort Span.compare spans in
          let rec walk cursor = function
            | [] ->
                if cursor = Space.size sp then Ok ()
                else Error (Gap { after = cursor; before = Space.size sp })
            | s :: rest ->
                let st = Span.start sp s in
                if st < cursor then
                  (* sorted by start, so the previous span ran past us *)
                  let prev =
                    List.find (fun p -> Span.overlap p s) (List.filter (fun p -> p != s) spans)
                  in
                  Error (Overlap { a = prev; b = s })
                else if st > cursor then Error (Gap { after = cursor; before = st })
                else walk (Span.stop sp s) rest
          in
          walk 0 sorted)
