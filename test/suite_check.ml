(* The diagnostics engine: combinators, every runtime diagnostic code,
   and the guarantee that the shipped baselines are diagnostic-free. *)

module C = Fom_check.Checker
module D = Fom_check.Diagnostic

let has_code code rule = List.exists (fun d -> d.D.code = code) rule

let check_code name code rule =
  Alcotest.(check bool) (name ^ " reports " ^ code) true (has_code code rule)

let check_clean name rule =
  Alcotest.(check (list string))
    (name ^ " is diagnostic-free") []
    (List.map D.to_string rule)

let expect_invalid name code f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid")
  | exception C.Invalid ds -> check_code name code ds

(* --- combinators ----------------------------------------------------- *)

let test_combinators () =
  check_clean "ok" C.ok;
  check_clean "passing all" (C.all [ C.min_int ~code:"X" ~path:"p" ~min:1 3; C.ok ]);
  check_code "min_int" "X" (C.min_int ~code:"X" ~path:"p" ~min:1 0);
  check_code "min_float" "X" (C.min_float ~code:"X" ~path:"p" ~min:1.0 0.5);
  check_code "positive_float" "X" (C.positive_float ~code:"X" ~path:"p" 0.0);
  check_code "fraction above" "X" (C.fraction ~code:"X" ~path:"p" 1.5);
  check_code "fraction nan" "X" (C.fraction ~code:"X" ~path:"p" Float.nan);
  check_clean "fraction zero" (C.fraction ~code:"X" ~path:"p" 0.0);
  check_code "positive_fraction zero" "X" (C.positive_fraction ~code:"X" ~path:"p" 0.0);
  check_code "sum_to_one" "X"
    (C.sum_to_one ~code:"X" ~path:"p" [ ("a", 0.5); ("b", 0.4) ]);
  check_clean "sum_to_one exact"
    (C.sum_to_one ~code:"X" ~path:"p" [ ("a", 0.5); ("b", 0.5) ])

let test_severities () =
  let rule =
    C.all
      [
        C.check ~code:"E1" ~path:"p" false "an error";
        C.check ~severity:D.Warning ~code:"W1" ~path:"p" false "a warning";
        C.check ~severity:D.Hint ~code:"H1" ~path:"p" false "a hint";
      ]
  in
  Alcotest.(check int) "three diagnostics" 3 (List.length rule);
  Alcotest.(check bool) "has_errors" true (C.has_errors rule);
  Alcotest.(check bool)
    "summary counts each severity" true
    (String.ends_with ~suffix:"\n1 error, 1 warning, 1 hint" (Format.asprintf "%a" C.pp_report rule));
  (* run_exn carries only the errors. *)
  (match C.run_exn rule with
  | () -> Alcotest.fail "run_exn accepted errors"
  | exception C.Invalid ds ->
      Alcotest.(check (list string)) "errors only" [ "E1" ] (List.map (fun d -> d.D.code) ds));
  C.run_exn (C.check ~severity:D.Warning ~code:"W1" ~path:"p" false "warnings do not raise")

let test_ensure_and_capture () =
  C.ensure ~code:"X" ~path:"p" true "fine";
  expect_invalid "ensure" "X" (fun () -> C.ensure ~code:"X" ~path:"p" false "bad");
  expect_invalid "internal_error" "FOM-X001" (fun () -> C.internal_error "broken invariant")

(* --- model parameters (FOM-P) ---------------------------------------- *)

let p = Fom_model.Params.baseline

let test_params_codes () =
  let module P = Fom_model.Params in
  check_clean "baseline params" (P.check p);
  check_code "P001" "FOM-P001" (P.check { p with P.width = 0 });
  check_code "P002" "FOM-P002" (P.check { p with P.pipeline_depth = 0 });
  check_code "P003" "FOM-P003" (P.check { p with P.window_size = 0 });
  check_code "P004" "FOM-P004" (P.check { p with P.window_size = 256; rob_size = 128 });
  check_code "P005" "FOM-P005" (P.check { p with P.short_delay = 0 });
  check_code "P006" "FOM-P006" (P.check { p with P.long_delay = 4 });
  check_code "P007" "FOM-P007" (P.check { p with P.dtlb_walk = -1 });
  check_code "P008" "FOM-P008" (P.check { p with P.fetch_buffer = -1 })

let test_params_p004_path () =
  match
    List.find_opt
      (fun d -> d.D.code = "FOM-P004")
      (Fom_model.Params.check { p with Fom_model.Params.window_size = 256; rob_size = 128 })
  with
  | Some d -> Alcotest.(check string) "P004 path" "params.window_size" d.D.path
  | None -> Alcotest.fail "no FOM-P004"

(* --- model inputs (FOM-I) -------------------------------------------- *)

let good_inputs =
  {
    Fom_model.Inputs.name = "test";
    instructions = 1_000;
    alpha = 1.5;
    beta = 0.5;
    fit_r2 = 0.99;
    avg_latency = 1.2;
    mispredictions_per_instr = 0.01;
    mispred_bursts = Fom_util.Distribution.of_list [ (1, 10) ];
    l1i_misses_per_instr = 0.002;
    l2i_misses_per_instr = 0.001;
    short_misses_per_instr = 0.01;
    long_misses_per_instr = 0.005;
    long_miss_groups = Fom_util.Distribution.of_list [ (1, 5) ];
    dtlb_misses_per_instr = 0.0;
    dtlb_groups = Fom_util.Distribution.create ();
  }

let test_inputs_codes () =
  let module I = Fom_model.Inputs in
  let i = good_inputs in
  check_clean "good inputs" (I.check i);
  check_code "I001" "FOM-I001" (I.check { i with I.instructions = 0 });
  check_code "I002" "FOM-I002" (I.check { i with I.alpha = 0.0 });
  check_code "I003" "FOM-I003" (I.check { i with I.beta = 1.5 });
  check_code "I004" "FOM-I004" (I.check { i with I.avg_latency = 0.5 });
  check_code "I005" "FOM-I005" (I.check { i with I.mispredictions_per_instr = -0.1 });
  check_code "I006" "FOM-I006"
    (I.check { i with I.l1i_misses_per_instr = 0.001; l2i_misses_per_instr = 0.002 });
  check_code "I007" "FOM-I007" (I.check { i with I.fit_r2 = 0.0 });
  check_code "I008" "FOM-I008"
    (I.check { i with I.long_miss_groups = Fom_util.Distribution.create () });
  check_code "I009" "FOM-I009"
    (I.check { i with I.long_miss_groups = Fom_util.Distribution.of_list [ (0, 3) ] });
  check_code "I010" "FOM-I010"
    (I.check { i with I.short_misses_per_instr = 0.6; long_misses_per_instr = 0.6 });
  check_code "I011" "FOM-I011" (I.check { i with I.fit_r2 = 0.3 });
  (* I006/I008/I011 are advisory, not errors. *)
  Alcotest.(check bool)
    "I006 is a warning" false
    (C.has_errors
       (I.check { i with I.l1i_misses_per_instr = 0.001; l2i_misses_per_instr = 0.002 }))

(* --- workload configs (FOM-T) ---------------------------------------- *)

let gzip = Fom_workloads.Spec2000.find "gzip"

let test_trace_config_codes () =
  let module T = Fom_trace.Config in
  let g = gzip in
  check_clean "gzip config" (T.check g);
  check_code "T001" "FOM-T001" (T.check { g with T.mix = { g.T.mix with T.load = -0.1 } });
  check_code "T002" "FOM-T002"
    (T.check { g with T.mix = { g.T.mix with T.load = 0.9; store = 0.9 } });
  check_code "T003" "FOM-T003"
    (T.check { g with T.mix = { g.T.mix with T.branch = 0.0; jump = 0.0 } });
  check_code "T004" "FOM-T004"
    (T.check { g with T.control = { g.T.control with T.regions = 0 } });
  check_code "T005" "FOM-T005" (T.check { g with T.deps = { g.T.deps with T.nsrc_weights = [||] } });
  check_code "T006" "FOM-T006"
    (T.check { g with T.memory = { g.T.memory with T.stream_stride = 7 } });
  check_code "T007" "FOM-T007"
    (T.check
       { g with T.control = { g.T.control with T.chaotic_low = 0.8; chaotic_high = 0.2 } });
  check_code "T008" "FOM-T008"
    (T.check
       { g with T.control = { g.T.control with T.chaotic_frac = 0.7; pattern_frac = 0.7 } });
  check_code "T010" "FOM-T010"
    (T.check { g with T.memory = { g.T.memory with T.local_frac = 0.9; random_frac = 0.9 } });
  (* Paths are rooted at the workload name. *)
  match T.check { g with T.mix = { g.T.mix with T.load = -0.1 } } with
  | d :: _ -> Alcotest.(check string) "rooted path" "workload.gzip.mix.load" d.D.path
  | [] -> Alcotest.fail "no diagnostic"

let test_branch_behavior_codes () =
  let module B = Fom_trace.Branch_behavior in
  expect_invalid "T030" "FOM-T030" (fun () -> B.create (B.Biased 1.5));
  expect_invalid "T031" "FOM-T031" (fun () -> B.create (B.Loop 0));
  expect_invalid "T032" "FOM-T032" (fun () -> B.create (B.Pattern [||]));
  ignore (B.create (B.Chaotic 0.5))

let test_address_gen_codes () =
  let module A = Fom_trace.Address_gen in
  expect_invalid "T050 region" "FOM-T050" (fun () ->
      A.create A.Random { A.base = 0; size = 12 });
  expect_invalid "T050 stride" "FOM-T050" (fun () ->
      A.create (A.Stride { stride = 3 }) { A.base = 0; size = 4096 })

let test_phases_codes () =
  let module P = Fom_trace.Phases in
  expect_invalid "T040" "FOM-T040" (fun () -> P.source []);
  expect_invalid "T041" "FOM-T041" (fun () -> P.source [ { P.config = gzip; instructions = 0 } ]);
  ignore (P.source [ { P.config = gzip; instructions = 100 } ])

(* --- trace files (FOM-T1xx) ------------------------------------------ *)

let with_trace_file contents f =
  let path = Filename.temp_file "fom_check" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let expect_parse_error name code ~line contents =
  with_trace_file contents (fun path ->
      match Fom_trace.Trace_file.load ~path with
      | _ -> Alcotest.fail (name ^ ": accepted bad trace")
      | exception C.Invalid [ d ] ->
          Alcotest.(check string) (name ^ " code") code d.D.code;
          Alcotest.(check string)
            (name ^ " path")
            (Printf.sprintf "%s:%d" path line)
            d.D.path
      | exception C.Invalid _ -> Alcotest.fail (name ^ ": expected one diagnostic"))

let test_parse_codes () =
  expect_parse_error "T101 header" "FOM-T101" ~line:1 "not a trace\n";
  expect_parse_error "T102 empty" "FOM-T102" ~line:1 "";
  expect_parse_error "T103 class" "FOM-T103" ~line:2 "fom-trace 1\nbogus 400000 - - -\n";
  expect_parse_error "T104 hex" "FOM-T104" ~line:2 "fom-trace 1\nalu zz - - -\n";
  expect_parse_error "T105 dep" "FOM-T105" ~line:2 "fom-trace 1\nalu 400000 - - - 7\n";
  expect_parse_error "T106 malformed" "FOM-T106" ~line:2 "fom-trace 1\nalu 400000\n";
  expect_parse_error "T107 no instrs" "FOM-T107" ~line:1 "fom-trace 1\n";
  (* [7fffffffffffffff] is a valid hex literal that wraps to -1: a
     negative pc, address or target is rejected where it is read. *)
  expect_parse_error "T104 negative pc" "FOM-T104" ~line:2
    "fom-trace 1\nalu 7fffffffffffffff - - -\n";
  expect_parse_error "T104 negative address" "FOM-T104" ~line:3
    "fom-trace 1\nalu 400000 - - -\nload 400004 7fffffffffffffff - - 0\n";
  expect_parse_error "T104 negative target" "FOM-T104" ~line:2
    "fom-trace 1\nbranch 400000 - T 7fffffffffffffff\n";
  expect_parse_error "T104 direction" "FOM-T104" ~line:2 "fom-trace 1\nbranch 400000 - X 400008\n";
  (* The fields must fit the class: an address on memory operations
     only, a direction and target on control operations only. *)
  expect_parse_error "T106 load without address" "FOM-T106" ~line:2
    "fom-trace 1\nload 400000 - - -\n";
  expect_parse_error "T106 alu with direction" "FOM-T106" ~line:2
    "fom-trace 1\nalu 400000 - T 400008\n";
  (* Blank lines shift the reported line number, not the index. *)
  expect_parse_error "T105 line 4" "FOM-T105" ~line:4
    "fom-trace 1\nalu 400000 - - -\n\nalu 400004 - - - 9\n"

let test_of_instrs_codes () =
  expect_invalid "T110 empty" "FOM-T110" (fun () -> Fom_trace.Source.of_instrs [||]);
  let i0 =
    Fom_isa.Instr.make ~index:1 ~pc:0x1000 ~opclass:Fom_isa.Opclass.Alu ()
  in
  expect_invalid "T110 order" "FOM-T110" (fun () -> Fom_trace.Source.of_instrs [| i0 |]);
  expect_invalid "T110 negative address" "FOM-T110" (fun () ->
      Fom_trace.Source.of_instrs
        [| Fom_isa.Instr.make ~index:0 ~pc:0x1000 ~opclass:Fom_isa.Opclass.Load ~mem:(-1) () |]);
  expect_invalid "T110 negative target" "FOM-T110" (fun () ->
      Fom_trace.Source.of_instrs
        [|
          Fom_isa.Instr.make ~index:0 ~pc:0x1000 ~opclass:Fom_isa.Opclass.Jump
            ~ctrl:{ Fom_isa.Instr.target = -4; taken = true }
            ();
        |])

(* --- instruction structure (FOM-T12x, FOM-U) ------------------------- *)

let test_instr_codes () =
  expect_invalid "T120 index" "FOM-T120" (fun () ->
      Fom_isa.Instr.make ~index:(-1) ~pc:0 ~opclass:Fom_isa.Opclass.Alu ());
  expect_invalid "T120 load without mem" "FOM-T120" (fun () ->
      Fom_isa.Instr.make ~index:0 ~pc:0 ~opclass:Fom_isa.Opclass.Load ());
  expect_invalid "T120 forward dep" "FOM-T120" (fun () ->
      Fom_isa.Instr.make ~index:3 ~pc:0 ~opclass:Fom_isa.Opclass.Alu ~deps:[| 3 |] ());
  expect_invalid "T121 reg" "FOM-T121" (fun () -> Fom_isa.Reg.of_int (-2))

let test_util_codes () =
  expect_invalid "U001 rng" "FOM-U001" (fun () ->
      Fom_util.Rng.int (Fom_util.Rng.create 1) 0);
  expect_invalid "U001 distribution" "FOM-U001" (fun () ->
      Fom_util.Distribution.add (Fom_util.Distribution.create ()) (-1));
  expect_invalid "U002 int_buffer" "FOM-U002" (fun () ->
      Fom_util.Int_buffer.create ~capacity:0 ());
  expect_invalid "U004 json" "FOM-U004" (fun () ->
      Fom_util.Json.of_string "{\"unterminated\": [1, 2")

(* --- machine configuration (FOM-M) ----------------------------------- *)

let m = Fom_uarch.Config.baseline

let test_machine_codes () =
  let module M = Fom_uarch.Config in
  check_clean "baseline machine" (M.check m);
  check_code "M001" "FOM-M001" (M.check { m with M.width = 0 });
  check_code "M002" "FOM-M002" (M.check { m with M.pipeline_depth = 0 });
  check_code "M003" "FOM-M003" (M.check { m with M.window_size = 0 });
  check_code "M004" "FOM-M004" (M.check { m with M.window_size = 256; rob_size = 128 });
  check_code "M005" "FOM-M005" (M.check { m with M.fetch_buffer = -1 });
  check_code "M006" "FOM-M006" (M.check { m with M.clusters = 0 });
  check_code "M007" "FOM-M007" (M.check { m with M.clusters = 3 });
  check_code "M008" "FOM-M008" (M.check { m with M.window_size = 47; clusters = 2 })

(* --- ring-capacity guards (FOM-I03x) --------------------------------- *)

let test_ring_guard_codes () =
  let module M = Fom_uarch.Config in
  (* FOM-I032: an in-flight span beyond the largest completion ring
     would silently alias completion slots; config validation rejects
     it instead. *)
  check_code "I032" "FOM-I032" (M.check { m with M.rob_size = 1 lsl M.max_comp_ring_bits });
  (* Below the cap the ring is sized to cover the span, so large-ROB
     studies (e.g. the IW-agreement machine) remain valid. *)
  let big = { m with M.rob_size = 65536; M.window_size = 48 } in
  check_clean "large rob valid" (M.check big);
  Alcotest.(check bool) "ring covers span" true (M.comp_ring_size big > M.inflight_span big);
  (* FOM-I031: the window-limited IW simulator rejects windows beyond
     the cap that bounds its per-cycle issue ring. *)
  let program = Fom_trace.Program.generate (List.hd Fom_workloads.Micro.all) in
  expect_invalid "I031 window beyond ring" "FOM-I031" (fun () ->
      ignore (Fom_analysis.Iw_sim.ipc program ~window:(Fom_analysis.Iw_sim.ring_size + 1) ~n:64))

let test_component_codes () =
  expect_invalid "M010 geometry" "FOM-M010" (fun () ->
      Fom_cache.Geometry.make ~size:100 ~assoc:3 ~line:7);
  check_code "M011 tlb" "FOM-M011"
    (Fom_cache.Tlb.diagnostics { Fom_cache.Tlb.entries = 3; page_bits = 13; walk_latency = 30 });
  expect_invalid "M012 latency" "FOM-M012" (fun () -> Fom_isa.Latency.make ~alu:0 ());
  expect_invalid "M013 fu_set" "FOM-M013" (fun () -> Fom_isa.Fu_set.make ~mul:0 ());
  check_code "M014 predictor" "FOM-M014"
    (Fom_branch.Predictor.diagnostics (Fom_branch.Predictor.Gshare 0));
  let cache = Fom_cache.Hierarchy.baseline in
  check_code "M015 hierarchy" "FOM-M015"
    (Fom_cache.Hierarchy.diagnostics
       {
         cache with
         Fom_cache.Hierarchy.latencies =
           { Fom_cache.Hierarchy.l1 = 2; l2 = 8; memory = 4 };
       });
  check_clean "baseline hierarchy" (Fom_cache.Hierarchy.diagnostics cache)

(* --- shipped baselines are diagnostic-free --------------------------- *)

let test_baselines_clean () =
  check_clean "params baseline" (Fom_model.Params.check Fom_model.Params.baseline);
  check_clean "machine baseline" (Fom_uarch.Config.check Fom_uarch.Config.baseline);
  List.iter
    (fun config ->
      check_clean
        ("workload " ^ config.Fom_trace.Config.name)
        (Fom_trace.Config.check config))
    (Fom_workloads.Spec2000.all @ Fom_workloads.Micro.all)

(* --- report rendering ------------------------------------------------ *)

let test_report () =
  let rule =
    C.all
      [
        C.check ~code:"FOM-P001" ~path:"params.width" false "width must be at least 1";
        C.check ~severity:D.Warning ~code:"FOM-I006" ~path:"inputs.l2i" false "suspicious";
      ]
  in
  let report = Format.asprintf "%a" C.pp_report rule in
  let contains needle =
    let n = String.length needle and m = String.length report in
    let rec scan k = k + n <= m && (String.sub report k n = needle || scan (k + 1)) in
    scan 0
  in
  Alcotest.(check bool) "mentions code" true (contains "FOM-P001");
  Alcotest.(check bool) "mentions path" true (contains "params.width");
  Alcotest.(check bool) "mentions summary" true (contains "1 error, 1 warning")

let suite =
  ( "check",
    [
      Alcotest.test_case "combinators" `Quick test_combinators;
      Alcotest.test_case "severities" `Quick test_severities;
      Alcotest.test_case "ensure and capture" `Quick test_ensure_and_capture;
      Alcotest.test_case "params codes" `Quick test_params_codes;
      Alcotest.test_case "params P004 path" `Quick test_params_p004_path;
      Alcotest.test_case "inputs codes" `Quick test_inputs_codes;
      Alcotest.test_case "trace config codes" `Quick test_trace_config_codes;
      Alcotest.test_case "branch behavior codes" `Quick test_branch_behavior_codes;
      Alcotest.test_case "address gen codes" `Quick test_address_gen_codes;
      Alcotest.test_case "phases codes" `Quick test_phases_codes;
      Alcotest.test_case "trace parse codes" `Quick test_parse_codes;
      Alcotest.test_case "of_instrs codes" `Quick test_of_instrs_codes;
      Alcotest.test_case "instr codes" `Quick test_instr_codes;
      Alcotest.test_case "util codes" `Quick test_util_codes;
      Alcotest.test_case "machine codes" `Quick test_machine_codes;
      Alcotest.test_case "ring guard codes" `Quick test_ring_guard_codes;
      Alcotest.test_case "component codes" `Quick test_component_codes;
      Alcotest.test_case "baselines clean" `Quick test_baselines_clean;
      Alcotest.test_case "report rendering" `Quick test_report;
    ] )
