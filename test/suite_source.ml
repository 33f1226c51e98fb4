(* Tests for Fom_trace.Source and Fom_trace.Trace_file: replayability,
   wrapping, and the trace file format round-trip. *)

module Source = Fom_trace.Source
module Packed = Fom_trace.Packed
module Trace_file = Fom_trace.Trace_file
module Opclass = Fom_isa.Opclass

let gzip = lazy (Fom_trace.Program.generate (Fom_workloads.Spec2000.find "gzip"))

(* The first [n] instructions, decoded from a packing. *)
let record source ~n = Row.take (Packed.of_source source ~n) ~n

let check_same label a b =
  Array.iteri
    (fun i (x : Row.t) -> if x <> b.(i) then Alcotest.failf "%s: differ at %d" label i)
    a

let test_of_program_replayable () =
  let source = Source.of_program (Lazy.force gzip) in
  let a = record source ~n:500 in
  let b = record source ~n:500 in
  check_same "two fresh passes" a b

let test_recorded_replay () =
  let base = record (Source.of_program (Lazy.force gzip)) ~n:300 in
  let replay = record (Row.source base) ~n:300 in
  check_same "array replay" base replay

let test_recorded_wraps_with_rebased_indices () =
  let base = record (Source.of_program (Lazy.force gzip)) ~n:100 in
  let wrapped = record (Row.source base) ~n:350 in
  Array.iteri
    (fun i (ins : Row.t) ->
      Alcotest.(check int) "indices stay sequential" i ins.Row.index;
      Array.iter
        (fun d ->
          if not (d >= 0 && d < i) then Alcotest.failf "dep %d at wrapped instr %d" d i)
        ins.Row.deps)
    wrapped;
  (* The wrapped copy repeats the original pcs. *)
  Alcotest.(check int) "pc repeats" base.(17).Row.pc wrapped.(217).Row.pc;
  (* Row [i] repeats row [i mod 100], its dependences re-based by the
     completed copies. *)
  Array.iteri
    (fun i (ins : Row.t) ->
      let orig = base.(i mod 100) and rebase = i - (i mod 100) in
      if ins <> { orig with Row.index = i; deps = Array.map (( + ) rebase) orig.Row.deps } then
        Alcotest.failf "wrapped row %d does not repeat row %d" i (i mod 100))
    wrapped

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

let test_pack_beyond_the_heap () =
  (* A packing no heap can hold ends in one FOM-T130 that names the
     length. Columns of 2^50 rows fail to allocate at once, so nothing
     is committed first. *)
  let n = 1 lsl 50 in
  match Packed.of_source (Source.of_program (Lazy.force gzip)) ~n with
  | _ -> Alcotest.fail "expected FOM-T130"
  | exception Fom_check.Checker.Invalid [ d ] ->
      Alcotest.(check string) "code" "FOM-T130" d.Fom_check.Diagnostic.code;
      Alcotest.(check string) "path" "packed.n" d.Fom_check.Diagnostic.path;
      let length = string_of_int n and message = d.Fom_check.Diagnostic.message in
      let rec names k =
        k + String.length length <= String.length message
        && (String.sub message k (String.length length) = length || names (k + 1))
      in
      Alcotest.(check bool) ("names the length: " ^ message) true (names 0)
  | exception Fom_check.Checker.Invalid _ -> Alcotest.fail "expected one diagnostic"

let test_padded_packing_past_max_int () =
  (* A run packs its length plus some lookahead. Near max_int that sum
     is more rows than any heap holds: one FOM-T130 that says so,
     raised before any packing, not a wrapped length reported as
     non-positive. *)
  let program = Lazy.force gzip in
  let expect name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected FOM-T130")
    | exception Fom_check.Checker.Invalid [ d ] ->
        Alcotest.(check string) (name ^ " code") "FOM-T130" d.Fom_check.Diagnostic.code;
        Alcotest.(check bool)
          (name ^ " cannot allocate: " ^ d.Fom_check.Diagnostic.message)
          true
          (String.starts_with ~prefix:"cannot allocate" d.Fom_check.Diagnostic.message)
    | exception Fom_check.Checker.Invalid _ -> Alcotest.fail (name ^ ": expected one diagnostic")
  in
  expect "simulate" (fun () ->
      Fom_uarch.Simulate.run Fom_uarch.Config.baseline program ~n:4611686018427387800);
  expect "iw curve" (fun () -> Fom_analysis.Iw_curve.measure ~n:max_int program);
  expect "characterize" (fun () ->
      Fom_analysis.Characterize.inputs ~iw_instructions:max_int
        ~params:Fom_model.Params.baseline program ~n:1000)

let test_at_least_reuse_is_by_identity () =
  (* [Packed.at_least] hands back the domain's last packing only for a
     source over the physically same programs with the same budgets and
     label, long enough; anything else packs afresh, a
     recorded trace always. The slot keeps no packing alive. *)
  let gzip_config = Fom_workloads.Spec2000.find "gzip" in
  let program = Fom_trace.Program.generate gzip_config in
  let reseeded seed =
    Fom_trace.Program.generate (Fom_workloads.Spec2000.with_seed seed gzip_config)
  in
  let seven = reseeded 7 in
  let mcf = Fom_trace.Program.generate (Fom_workloads.Spec2000.find "mcf") in
  let schedule ?(label = "gzip+mcf") budget =
    Source.of_schedule ~label [ (program, 700); (mcf, budget) ]
  in
  let n = 2000 in
  let check what expected got = Alcotest.(check bool) what expected got in
  List.iter
    (fun (base, same, others) ->
      let first = Packed.at_least base ~n in
      check "exact length" true (Packed.length first = n);
      List.iter (fun (what, source) -> check what true (Packed.at_least source ~n == first)) same;
      check "fewer rows reuse" true (Packed.at_least base ~n:(n - 1) == first);
      let longer = Packed.at_least base ~n:(n + 1) in
      check "more rows pack afresh" true (longer != first && Packed.length longer = n + 1);
      check "then serve fewer rows" true (Packed.at_least base ~n == longer);
      List.iter
        (fun (what, source) ->
          let last = Packed.at_least base ~n in
          check what true (Packed.at_least source ~n != last))
        others)
    [
      ( Source.of_program program,
        [ ("a new source of the same program", Source.of_program program) ],
        [
          ( "a regenerated equal program",
            Source.of_program (Fom_trace.Program.generate gzip_config) );
          ("a reseeded program", Source.of_program seven);
        ] );
      ( Source.of_program seven,
        [ ("a new source of the reseeded program", Source.of_program seven) ],
        [
          ("the preset's seed", Source.of_program program);
          ("a third seed", Source.of_program (reseeded 8));
        ] );
      ( schedule 500,
        [ ("a new schedule of the same programs", schedule 500) ],
        [
          ("other budgets", schedule 600);
          ("another label", schedule ~label:"other" 500);
          ( "a regenerated phase program",
            Source.of_schedule ~label:"gzip+mcf"
              [ (Fom_trace.Program.generate gzip_config, 700); (mcf, 500) ] );
        ] );
    ];
  let recorded = Row.source (record (Source.of_program program) ~n:300) in
  check "a recorded trace packs afresh" true
    (Packed.at_least recorded ~n:300 != Packed.at_least recorded ~n:300);
  let finalised = Atomic.make false in
  let[@inline never] pack_and_drop () =
    let packed = Packed.at_least (Source.of_program mcf) ~n:5000 in
    Gc.finalise (fun _ -> Atomic.set finalised true) packed
  in
  pack_and_drop ();
  Gc.full_major ();
  check "the dropped packing is collected" true (Atomic.get finalised)

let suite =
  ( "source",
    [
      Alcotest.test_case "program source replayable" `Quick test_of_program_replayable;
      Alcotest.test_case "array replay" `Quick test_recorded_replay;
      Alcotest.test_case "wrapped replay rebases" `Quick test_recorded_wraps_with_rebased_indices;
      Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
      Alcotest.test_case "save format unchanged" `Quick test_save_golden;
      Alcotest.test_case "roundtrip preserves model inputs" `Quick
        test_file_roundtrip_preserves_model_inputs;
      Alcotest.test_case "simulator on loaded trace" `Quick test_simulator_on_loaded_trace;
      Alcotest.test_case "rejects garbage" `Quick test_load_rejects_garbage;
      Alcotest.test_case "rejects forward dependence" `Quick test_load_rejects_bad_dependence;
      Alcotest.test_case "unreadable file" `Quick test_load_unreadable;
      Alcotest.test_case "packing beyond the heap is FOM-T130" `Quick test_pack_beyond_the_heap;
      Alcotest.test_case "padded packing past max_int is FOM-T130" `Quick
        test_padded_packing_past_max_int;
      Alcotest.test_case "at_least reuse is by identity" `Quick
        test_at_least_reuse_is_by_identity;
      QCheck_alcotest.to_alcotest prop_load_diagnoses_at_file_line;
    ] )
