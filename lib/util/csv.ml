let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let escape s =
  if needs_quoting s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let line fields = String.concat "," (List.map escape fields) ^ "\n"

let write_file ~path ~header rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun fields -> output_string oc (line fields)) (header :: rows))
