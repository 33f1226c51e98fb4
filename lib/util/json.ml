type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr x =
  if not (Float.is_finite x) then "null"
  else
    (* Shortest representation that still round-trips common timing
       and ratio values; %.12g strips trailing zeros. *)
    let s = Printf.sprintf "%.12g" x in
    (* "1e+06" and "3." are valid OCaml floats but JSON wants a digit
       after the point; %g never emits "3.", so only ensure the string
       parses as a JSON number by adding ".0" to bare integers. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let to_string ?(indent = 2) v =
  let buf = Buffer.create 256 in
  let pad level =
    if indent > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (level * indent) ' ')
    end
  in
  let rec emit level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x -> Buffer.add_string buf (float_repr x)
    | String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            pad (level + 1);
            emit (level + 1) item)
          items;
        pad level;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (key, value) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (level + 1);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape key);
            Buffer.add_string buf "\": ";
            emit (level + 1) value)
          fields;
        pad level;
        Buffer.add_char buf '}'
  in
  emit 0 v;
  Buffer.contents buf

(* --- parsing --- *)

let fail_at pos msg =
  raise
    (Fom_check.Checker.Invalid
       [
         Fom_check.Diagnostic.make ~code:"FOM-U004"
           ~path:(Printf.sprintf "json.char[%d]" pos)
           msg;
       ])

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail_at !pos (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail_at !pos ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail_at !pos "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            Buffer.contents buf
        | '\\' ->
            incr pos;
            if !pos >= n then fail_at !pos "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if !pos + 4 >= n then fail_at !pos "truncated \\u escape";
                (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                (* Only emission's own escapes need to round-trip; those
                   are all ASCII control characters. *)
                | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
                | Some _ -> Buffer.add_char buf '?'
                | None -> fail_at !pos "bad \\u escape");
                pos := !pos + 4
            | c -> fail_at !pos (Printf.sprintf "bad escape \\%c" c));
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && (match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false)
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some x -> Float x
      | None -> fail_at start "malformed number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some x -> Float x
          | None -> fail_at start "malformed number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail_at !pos "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields ((key, v) :: acc)
            | Some '}' ->
                incr pos;
                Obj (List.rev ((key, v) :: acc))
            | Some _ | None -> fail_at !pos "expected ',' or '}'"
          in
          fields []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items (v :: acc)
            | Some ']' ->
                incr pos;
                List (List.rev (v :: acc))
            | Some _ | None -> fail_at !pos "expected ',' or ']'"
          in
          items []
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail_at !pos (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail_at !pos "trailing content after the JSON value";
  v

let of_file ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error message ->
      raise
        (Fom_check.Checker.Invalid
           [ Fom_check.Diagnostic.make ~code:"FOM-U005" ~path ("cannot read JSON file: " ^ message) ])

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let number = function Int i -> Some (float_of_int i) | Float x -> Some x | _ -> None

let write_file ~path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')
