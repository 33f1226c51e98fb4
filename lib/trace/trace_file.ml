module Opclass = Fom_isa.Opclass

let format_magic = "fom-trace 1"

let class_of_string s =
  List.find_opt (fun c -> String.equal (Opclass.to_string c) s) Opclass.all

let save ~path source ~n =
  let p = Packed.of_source source ~n in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (format_magic ^ "\n");
      for i = 0 to n - 1 do
        let opclass = Opclass.of_int p.Packed.op.(i) and ea = p.Packed.ea.(i) in
        let mem = if Opclass.is_memory opclass then Printf.sprintf "%x" ea else "-" in
        let dir, target =
          if Opclass.is_control opclass then
            ((if ea land 1 = 1 then "T" else "N"), Printf.sprintf "%x" (ea lsr 1))
          else ("-", "-")
        in
        Printf.fprintf oc "%s %x %s %s %s" (Opclass.to_string opclass) p.Packed.pc.(i) mem dir
          target;
        for k = p.Packed.dep_off.(i) to p.Packed.dep_off.(i + 1) - 1 do
          Printf.fprintf oc " %d" p.Packed.dep_val.(k)
        done;
        output_char oc '\n'
      done)

(* A parse error names the file and the 1-based line number in the
   diagnostic path ([file.trace:12]) and quotes the offending line in
   the message. *)
let parse_error ~path ~lineno ~code msg =
  raise
    (Fom_check.Checker.Invalid
       [
         Fom_check.Diagnostic.make ~code
           ~path:(Printf.sprintf "%s:%d" path lineno)
           msg;
       ])

(* One line as its row's [op], [pc], [ea] and dependences. *)
let parse_line ~path ~lineno ~index line =
  match String.split_on_char ' ' (String.trim line) with
  | cls_s :: pc_s :: mem_s :: dir_s :: target_s :: dep_fields -> (
      match class_of_string cls_s with
      | None ->
          parse_error ~path ~lineno ~code:"FOM-T103"
            (Printf.sprintf "unknown instruction class %S in %S" cls_s line)
      | Some opclass ->
          let parse_hex ?(limit = max_int) what s =
            match int_of_string_opt ("0x" ^ s) with
            | Some v when v >= 0 && v <= limit -> v
            | Some _ | None ->
                parse_error ~path ~lineno ~code:"FOM-T104"
                  (Printf.sprintf "bad %s %S in %S" what s line)
          in
          let pc = parse_hex "pc" pc_s in
          let mem = if mem_s = "-" then None else Some (parse_hex "address" mem_s) in
          (* A target must leave room for the direction bit of [ea]. *)
          let ctrl =
            match (dir_s, target_s) with
            | "-", "-" -> None
            | ("T" | "N"), target ->
                Some ((parse_hex ~limit:(max_int lsr 1) "target" target lsl 1)
                      lor Bool.to_int (dir_s = "T"))
            | dir, _ ->
                parse_error ~path ~lineno ~code:"FOM-T104"
                  (Printf.sprintf "bad direction %S (expected T, N or -) in %S" dir line)
          in
          (* Memory operations, and only they, carry an address; control
             operations, and only they, a direction and target. *)
          let ea =
            match (Opclass.is_memory opclass, mem, Opclass.is_control opclass, ctrl) with
            | true, Some ea, false, None | false, None, true, Some ea -> ea
            | false, None, false, None -> -1
            | _ ->
                parse_error ~path ~lineno ~code:"FOM-T106"
                  (Printf.sprintf "address or direction fields do not fit class %s in %S" cls_s
                     line)
          in
          let deps =
            dep_fields
            |> List.filter (fun f -> f <> "")
            |> List.map (fun f ->
                   match int_of_string_opt f with
                   | Some d when d >= 0 && d < index -> d
                   | Some d ->
                       parse_error ~path ~lineno ~code:"FOM-T105"
                         (Printf.sprintf
                            "dependence %d must name an earlier instruction (this is \
                             instruction %d) in %S"
                            d index line)
                   | None ->
                       parse_error ~path ~lineno ~code:"FOM-T104"
                         (Printf.sprintf "bad dependence %S in %S" f line))
          in
          (Opclass.to_int opclass, pc, ea, deps))
  | _ ->
      parse_error ~path ~lineno ~code:"FOM-T106"
        (Printf.sprintf "malformed trace line %S (expected class pc mem dir target deps...)"
           line)

let parse_file ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (match input_line ic with
      | magic when String.trim magic = format_magic -> ()
      | magic ->
          parse_error ~path ~lineno:1 ~code:"FOM-T101"
            (Printf.sprintf "not a fom trace (header %S, expected %S)" magic format_magic)
      | exception End_of_file ->
          parse_error ~path ~lineno:1 ~code:"FOM-T102" "empty trace file");
      let op = ref [] and pc = ref [] and ea = ref [] and dep_off = ref [ 0 ] in
      let dep_val = ref [] and ndeps = ref 0 and index = ref 0 and lineno = ref 1 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           if String.trim line <> "" then begin
             let o, p, e, deps = parse_line ~path ~lineno:!lineno ~index:!index line in
             op := o :: !op;
             pc := p :: !pc;
             ea := e :: !ea;
             dep_val := List.rev_append deps !dep_val;
             ndeps := !ndeps + List.length deps;
             dep_off := !ndeps :: !dep_off;
             incr index
           end
         done
       with End_of_file -> ());
      if !index = 0 then
        parse_error ~path ~lineno:!lineno ~code:"FOM-T107" "trace file has no instructions";
      let column l = Array.of_list (List.rev !l) in
      Source.of_columns ~label:path
        {
          Source.op = column op;
          pc = column pc;
          ea = column ea;
          dep_off = column dep_off;
          dep_val = column dep_val;
        })

(* A missing file, a directory or a failed read is FOM-T100 on the
   path; parse errors are already diagnostics. *)
let load ~path =
  try parse_file ~path
  with Sys_error message ->
    raise
      (Fom_check.Checker.Invalid
         [ Fom_check.Diagnostic.make ~code:"FOM-T100" ~path ("cannot read trace file: " ^ message) ])
