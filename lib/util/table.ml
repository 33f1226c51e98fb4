type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ?align ~header rows =
  let ncols = List.length header in
  let normalize row =
    let n = List.length row in
    if n >= ncols then row else row @ List.init (ncols - n) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let aligns =
    match align with
    | Some a when List.length a = ncols -> a
    | _ -> List.mapi (fun i _ -> if i = 0 then Left else Right) header
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> Int.max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let render_row cells =
    let padded =
      List.mapi
        (fun i cell -> pad (List.nth aligns i) (List.nth widths i) cell)
        cells
    in
    "  " ^ String.concat "  " padded
  in
  let rule =
    "  " ^ String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print ?align ~header rows = print_string (render ?align ~header rows)

let float_cell ?(decimals = 3) x = Printf.sprintf "%.*f" decimals x

let heading s =
  let bar = String.make (String.length s) '=' in
  "\n" ^ s ^ "\n" ^ bar ^ "\n"
