module Instr = Fom_isa.Instr
module Opclass = Fom_isa.Opclass
module Reg = Fom_isa.Reg

let format_magic = "fom-trace 1"

let class_of_string s =
  List.find_opt (fun c -> String.equal (Opclass.to_string c) s) Opclass.all

let save ~path source ~n =
  let packed = Packed.of_source source ~n in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (format_magic ^ "\n");
      for i = 0 to n - 1 do
        let ins = Packed.instr packed i in
        let mem = match ins.Instr.mem with Some a -> Printf.sprintf "%x" a | None -> "-" in
        let dir, target =
          match ins.Instr.ctrl with
          | Some c -> ((if c.Instr.taken then "T" else "N"), Printf.sprintf "%x" c.Instr.target)
          | None -> ("-", "-")
        in
        let deps =
          ins.Instr.deps |> Array.to_list |> List.map string_of_int |> String.concat " "
        in
        Printf.fprintf oc "%s %x %s %s %s%s%s\n"
          (Opclass.to_string ins.Instr.opclass)
          ins.Instr.pc mem dir target
          (if deps = "" then "" else " ")
          deps
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

let parse_line ~path ~lineno ~index ~next_dst line =
  match String.split_on_char ' ' (String.trim line) with
  | cls_s :: pc_s :: mem_s :: dir_s :: target_s :: dep_fields -> (
      match class_of_string cls_s with
      | None ->
          parse_error ~path ~lineno ~code:"FOM-T103"
            (Printf.sprintf "unknown instruction class %S in %S" cls_s line)
      | Some opclass ->
          let parse_hex what s =
            match int_of_string_opt ("0x" ^ s) with
            | Some v when v >= 0 -> v
            | Some _ | None ->
                parse_error ~path ~lineno ~code:"FOM-T104"
                  (Printf.sprintf "bad %s %S in %S" what s line)
          in
          let pc = parse_hex "pc" pc_s in
          let mem = if mem_s = "-" then None else Some (parse_hex "address" mem_s) in
          let ctrl =
            match (dir_s, target_s) with
            | "-", "-" -> None
            | ("T" | "N"), target ->
                Some { Instr.target = parse_hex "target" target; taken = dir_s = "T" }
            | dir, _ ->
                parse_error ~path ~lineno ~code:"FOM-T104"
                  (Printf.sprintf "bad direction %S (expected T, N or -) in %S" dir line)
          in
          (* Memory operations, and only they, carry an address; control
             operations, and only they, a direction and target. *)
          if
            Opclass.is_memory opclass <> Option.is_some mem
            || Opclass.is_control opclass <> Option.is_some ctrl
          then
            parse_error ~path ~lineno ~code:"FOM-T106"
              (Printf.sprintf "address or direction fields do not fit class %s in %S" cls_s line);
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
            |> Array.of_list
          in
          let dst =
            match opclass with
            | Opclass.Alu | Opclass.Mul | Opclass.Div | Opclass.Load ->
                next_dst := (!next_dst mod (Reg.count - 1)) + 1;
                Some (Reg.of_int !next_dst)
            | Opclass.Store | Opclass.Branch | Opclass.Jump -> None
          in
          Instr.make ~index ~pc ~opclass ?dst ~deps ?mem ?ctrl ())
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
      let next_dst = ref 0 in
      let instrs = ref [] in
      let index = ref 0 in
      let lineno = ref 1 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           if String.trim line <> "" then begin
             instrs := parse_line ~path ~lineno:!lineno ~index:!index ~next_dst line :: !instrs;
             incr index
           end
         done
       with End_of_file -> ());
      if !instrs = [] then
        parse_error ~path ~lineno:!lineno ~code:"FOM-T107" "trace file has no instructions";
      Source.of_instrs ~label:path (Array.of_list (List.rev !instrs)))

(* A missing file, a directory or a failed read is FOM-T100 on the
   path; parse errors are already diagnostics. *)
let load ~path =
  try parse_file ~path
  with Sys_error message ->
    raise
      (Fom_check.Checker.Invalid
         [ Fom_check.Diagnostic.make ~code:"FOM-T100" ~path ("cannot read trace file: " ^ message) ])
