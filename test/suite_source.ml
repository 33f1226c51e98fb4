(* Tests for Fom_trace.Source and Fom_trace.Trace_file: replayability,
   wrapping, and the trace file format round-trip. *)

module Source = Fom_trace.Source
module Packed = Fom_trace.Packed
module Trace_file = Fom_trace.Trace_file
module Instr = Fom_isa.Instr
module Opclass = Fom_isa.Opclass
module Reg = Fom_isa.Reg

let gzip = lazy (Fom_trace.Program.generate (Fom_workloads.Spec2000.find "gzip"))

(* The first [n] instructions, decoded from a packing. *)
let record source ~n =
  let packed = Packed.of_source source ~n in
  Array.init n (Packed.instr packed)

let same_instr (a : Instr.t) (b : Instr.t) =
  a.Instr.index = b.Instr.index && a.Instr.pc = b.Instr.pc
  && a.Instr.opclass = b.Instr.opclass
  && a.Instr.deps = b.Instr.deps && a.Instr.mem = b.Instr.mem
  &&
  match (a.Instr.ctrl, b.Instr.ctrl) with
  | None, None -> true
  | Some x, Some y -> x.Instr.taken = y.Instr.taken && x.Instr.target = y.Instr.target
  | _ -> false

let check_same label a b =
  Array.iteri
    (fun i x -> if not (same_instr x b.(i)) then Alcotest.failf "%s: differ at %d" label i)
    a

let test_of_program_replayable () =
  let source = Source.of_program (Lazy.force gzip) in
  let a = record source ~n:500 in
  let b = record source ~n:500 in
  check_same "two fresh passes" a b

let test_of_instrs_replay () =
  let base = record (Source.of_program (Lazy.force gzip)) ~n:300 in
  let replay = record (Source.of_instrs base) ~n:300 in
  check_same "array replay" base replay

let test_of_instrs_wraps_with_rebased_indices () =
  let base = record (Source.of_program (Lazy.force gzip)) ~n:100 in
  let wrapped = record (Source.of_instrs base) ~n:350 in
  Array.iteri
    (fun i (ins : Instr.t) ->
      Alcotest.(check int) "indices stay sequential" i ins.Instr.index;
      Array.iter
        (fun d ->
          if not (d >= 0 && d < i) then Alcotest.failf "dep %d at wrapped instr %d" d i)
        ins.Instr.deps)
    wrapped;
  (* The wrapped copy repeats the original pcs. *)
  Alcotest.(check int) "pc repeats" base.(17).Instr.pc wrapped.(217).Instr.pc

let test_file_roundtrip () =
  let path = Filename.temp_file "fom" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let source = Source.of_program (Lazy.force gzip) in
      Trace_file.save ~path source ~n:400;
      let loaded = Trace_file.load ~path in
      let original = record source ~n:400 in
      let reread = record loaded ~n:400 in
      (* Register names are re-assigned on load; everything the model
         consumes must round-trip exactly. *)
      check_same "roundtrip" original reread;
      Alcotest.(check string) "label is the path" path (Source.label loaded))

let test_save_golden () =
  (* Pinned bytes of the exported format: the first 40 gzip
     instructions, header included (its first lines are
     [fom-trace 1], [alu 400000 - - -], [branch 400004 - N 400008 0]). *)
  let path = Filename.temp_file "fom" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_file.save ~path (Source.of_program (Lazy.force gzip)) ~n:40;
      Alcotest.(check string) "digest of the saved file" "9480d7502cda64d5c0ec9eea147e08b6"
        (Digest.to_hex (Digest.file path)))

let test_file_roundtrip_preserves_model_inputs () =
  let path = Filename.temp_file "fom" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let source = Source.of_program (Lazy.force gzip) in
      let n = 20000 in
      Trace_file.save ~path source ~n;
      let loaded = Trace_file.load ~path in
      let params = Fom_model.Params.baseline in
      let from_program =
        Fom_analysis.Characterize.inputs_of_source ~iw_instructions:5000 ~params source ~n
      in
      let from_file =
        Fom_analysis.Characterize.inputs_of_source ~iw_instructions:5000 ~params loaded ~n
      in
      Alcotest.(check (float 1e-9)) "same alpha" from_program.Fom_model.Inputs.alpha
        from_file.Fom_model.Inputs.alpha;
      Alcotest.(check (float 1e-9)) "same misprediction rate"
        from_program.Fom_model.Inputs.mispredictions_per_instr
        from_file.Fom_model.Inputs.mispredictions_per_instr;
      Alcotest.(check (float 1e-9)) "same long-miss rate"
        from_program.Fom_model.Inputs.long_misses_per_instr
        from_file.Fom_model.Inputs.long_misses_per_instr)

let test_simulator_on_loaded_trace () =
  let path = Filename.temp_file "fom" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let source = Source.of_program (Lazy.force gzip) in
      Trace_file.save ~path source ~n:20000;
      let loaded = Trace_file.load ~path in
      let a = Fom_uarch.Simulate.run_source Fom_uarch.Config.baseline source ~n:20000 in
      let b = Fom_uarch.Simulate.run_source Fom_uarch.Config.baseline loaded ~n:20000 in
      Alcotest.(check int) "same cycles" a.Fom_uarch.Stats.cycles b.Fom_uarch.Stats.cycles)

let test_load_rejects_garbage () =
  let path = Filename.temp_file "fom" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a trace\n";
      close_out oc;
      match Trace_file.load ~path with
      | _ -> Alcotest.fail "accepted garbage"
      | exception Fom_check.Checker.Invalid [ d ] ->
          Alcotest.(check string) "code" "FOM-T101" d.Fom_check.Diagnostic.code;
          Alcotest.(check string) "path has line 1" (path ^ ":1")
            d.Fom_check.Diagnostic.path)

let test_load_rejects_bad_dependence () =
  let path = Filename.temp_file "fom" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "fom-trace 1\nalu 400000 - - - 7\n";
      close_out oc;
      match Trace_file.load ~path with
      | _ -> Alcotest.fail "accepted forward dependence"
      | exception Fom_check.Checker.Invalid [ d ] ->
          Alcotest.(check string) "code" "FOM-T105" d.Fom_check.Diagnostic.code;
          Alcotest.(check string) "path has line 2" (path ^ ":2")
            d.Fom_check.Diagnostic.path)

let test_load_unreadable () =
  (* A missing file and a directory: a FOM-T100 diagnostic on the
     path, not a Sys_error. *)
  let dir = Filename.get_temp_dir_name () in
  List.iter
    (fun path ->
      match Trace_file.load ~path with
      | _ -> Alcotest.fail ("loaded " ^ path)
      | exception Fom_check.Checker.Invalid [ d ] ->
          Alcotest.(check string) "code" "FOM-T100" d.Fom_check.Diagnostic.code;
          Alcotest.(check string) "path" path d.Fom_check.Diagnostic.path)
    [ Filename.concat dir "fom-no-such-file.trace"; dir ]

(* Random byte edits of a saved trace: [load] either accepts the
   result or rejects it with a diagnostic at [file:line], never with an
   error from deeper in the library. *)
type edit = Replace of int * char | Delete of int | Insert of int * char

let apply_edit text = function
  | Replace (at, c) ->
      let at = at mod String.length text in
      String.mapi (fun i x -> if i = at then c else x) text
  | Delete at ->
      let at = at mod String.length text in
      String.sub text 0 at ^ String.sub text (at + 1) (String.length text - at - 1)
  | Insert (at, c) ->
      let at = at mod (String.length text + 1) in
      String.sub text 0 at ^ String.make 1 c ^ String.sub text at (String.length text - at)

let saved_trace =
  lazy
    (let path = Filename.temp_file "fom" ".trace" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         Trace_file.save ~path (Source.of_program (Lazy.force gzip)) ~n:30;
         In_channel.with_open_bin path In_channel.input_all))

let edits =
  let open QCheck.Gen in
  (* Mostly bytes the format uses, so edits land on plausible fields. *)
  let format_byte = oneofl (List.of_seq (String.to_seq "0123456789abcdefTNX- \n")) in
  let byte = frequency [ (4, format_byte); (1, char) ] in
  let pos = int_bound 10_000 in
  list_size (int_range 1 3)
    (oneof
       [
         map2 (fun at c -> Replace (at, c)) pos byte;
         map (fun at -> Delete at) pos;
         map2 (fun at c -> Insert (at, c)) pos byte;
       ])

let prop_load_diagnoses_at_file_line =
  QCheck.Test.make ~name:"load diagnoses edited traces at file:line" ~count:500
    (QCheck.make edits
       ~print:
         (QCheck.Print.list (function
           | Replace (at, c) -> Printf.sprintf "replace %d %C" at c
           | Delete at -> Printf.sprintf "delete %d" at
           | Insert (at, c) -> Printf.sprintf "insert %d %C" at c)))
    (fun edits ->
      let text = List.fold_left apply_edit (Lazy.force saved_trace) edits in
      let path = Filename.temp_file "fom" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc text);
          match Trace_file.load ~path with
          | _ -> true
          | exception Fom_check.Checker.Invalid (d :: _) -> (
              let lines = List.length (String.split_on_char '\n' text) in
              let prefix = path ^ ":" in
              let p = d.Fom_check.Diagnostic.path in
              String.starts_with ~prefix p
              &&
              match
                int_of_string_opt
                  (String.sub p (String.length prefix) (String.length p - String.length prefix))
              with
              | Some line -> line >= 1 && line <= lines
              | None -> false)))

let suite =
  ( "source",
    [
      Alcotest.test_case "program source replayable" `Quick test_of_program_replayable;
      Alcotest.test_case "array replay" `Quick test_of_instrs_replay;
      Alcotest.test_case "wrapped replay rebases" `Quick test_of_instrs_wraps_with_rebased_indices;
      Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
      Alcotest.test_case "save format unchanged" `Quick test_save_golden;
      Alcotest.test_case "roundtrip preserves model inputs" `Quick
        test_file_roundtrip_preserves_model_inputs;
      Alcotest.test_case "simulator on loaded trace" `Quick test_simulator_on_loaded_trace;
      Alcotest.test_case "rejects garbage" `Quick test_load_rejects_garbage;
      Alcotest.test_case "rejects forward dependence" `Quick test_load_rejects_bad_dependence;
      Alcotest.test_case "unreadable file" `Quick test_load_unreadable;
      QCheck_alcotest.to_alcotest prop_load_diagnoses_at_file_line;
    ] )
