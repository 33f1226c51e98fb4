(* fom: command-line front end to the first-order superscalar model.

   Subcommands mirror the paper's workflow:
     iw        measure a workload's IW curve and power-law fit
     profile   functional cache/predictor profiling of a trace
     model     evaluate the first-order model (inputs + CPI breakdown)
     simulate  run the detailed cycle-level simulator
     compare   model vs simulation across workloads
     trends    the Section 6 pipeline-depth and issue-width studies *)

open Cmdliner

let all_workloads = Fom_workloads.Spec2000.all @ Fom_workloads.Micro.all

let workload_names =
  String.concat ", " (List.map (fun c -> c.Fom_trace.Config.name) all_workloads)

let lookup_workload name =
  match List.find (fun c -> String.equal c.Fom_trace.Config.name name) all_workloads with
  | config -> Ok config
  | exception Not_found ->
      Error (Printf.sprintf "unknown workload %S (expected one of: %s)" name workload_names)

let workload_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (lookup_workload s) in
  let print fmt (c : Fom_trace.Config.t) = Format.pp_print_string fmt c.Fom_trace.Config.name in
  Arg.conv (parse, print)

let workload_arg =
  Arg.(
    value
    & opt workload_conv (Fom_workloads.Spec2000.find "gzip")
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:(Printf.sprintf "Workload: %s." workload_names))

(* Every subcommand takes its count through here, so a count below 1
   ends in the same one diagnostic everywhere, before any work. *)
let instructions_arg default =
  let at_least_one n =
    if n < 1 then
      raise
        (Fom_check.Checker.Invalid
           (Fom_check.Checker.fail ~code:"FOM-I030" ~path:"cli.instructions"
              (Printf.sprintf "-n must be at least 1, got %d" n)));
    n
  in
  Term.(
    const at_least_one
    $ Arg.(
        value & opt int default
        & info [ "n"; "instructions" ] ~docv:"N" ~doc:"Instructions to analyze/simulate."))

let seed_arg =
  Arg.(
    value & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Override the workload's RNG seed.")

let width_arg =
  Arg.(value & opt int 4 & info [ "width" ] ~docv:"W" ~doc:"Machine width (fetch..retire).")

let depth_arg =
  Arg.(value & opt int 5 & info [ "depth" ] ~docv:"D" ~doc:"Front-end pipeline depth.")

let window_arg =
  Arg.(value & opt int 48 & info [ "window" ] ~docv:"SIZE" ~doc:"Issue window entries.")

let rob_arg = Arg.(value & opt int 128 & info [ "rob" ] ~docv:"SIZE" ~doc:"Reorder buffer entries.")

let program_of config seed =
  let config =
    match seed with Some s -> Fom_workloads.Spec2000.with_seed s config | None -> config
  in
  Fom_trace.Program.generate config

let params_of width depth window rob =
  {
    Fom_model.Params.width;
    pipeline_depth = depth;
    window_size = window;
    rob_size = rob;
    short_delay = 8;
    long_delay = 200;
    dtlb_walk = 30;
    fetch_buffer = 0;
  }

let machine_of width depth window rob =
  {
    Fom_uarch.Config.baseline with
    Fom_uarch.Config.width;
    pipeline_depth = depth;
    window_size = window;
    rob_size = rob;
  }

(* --metrics and --trace-out: enable the Fom_obs sink before the work
   and report after it; the command's own output is unchanged. *)
let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print an observability metrics table (pool, memo, simulator and IW counters) \
           after the report; the report itself is unchanged.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON of the run to $(docv) (load in Perfetto or \
           chrome://tracing).")

let enable_observability metrics trace_out =
  if metrics || trace_out <> None then Fom_obs.Sink.enable ()

let report_observability metrics trace_out =
  if metrics then begin
    let header, rows = Fom_obs.Export.metrics_rows () in
    print_newline ();
    Fom_util.Table.print ~header rows
  end;
  match trace_out with
  | None -> ()
  | Some path ->
      Fom_obs.Export.write_chrome_trace ~path;
      Printf.printf "wrote Chrome trace to %s (load in Perfetto or chrome://tracing)\n" path

(* fom iw *)
let iw_cmd =
  let run config seed n =
    let program = program_of config seed in
    let curve = Fom_analysis.Iw_curve.measure ~n program in
    Printf.printf "workload %s: I = %.2f * W^%.2f (r2 %.3f)\n"
      config.Fom_trace.Config.name
      (Fom_analysis.Iw_curve.alpha curve)
      (Fom_analysis.Iw_curve.beta curve)
      curve.Fom_analysis.Iw_curve.fit.Fom_util.Fit.r2;
    let rows =
      List.map
        (fun p ->
          [
            string_of_int p.Fom_analysis.Iw_curve.window;
            Fom_util.Table.float_cell ~decimals:2 p.Fom_analysis.Iw_curve.ipc;
          ])
        curve.Fom_analysis.Iw_curve.points
    in
    Fom_util.Table.print ~header:[ "window"; "IPC" ] rows
  in
  let term = Term.(const run $ workload_arg $ seed_arg $ instructions_arg 30_000) in
  Cmd.v (Cmd.info "iw" ~doc:"Measure the IW curve and its power-law fit (paper Section 3).") term

(* fom profile *)
let profile_cmd =
  let run config seed n =
    let program = program_of config seed in
    let p = Fom_analysis.Profile.run program ~n in
    let ki count = 1000.0 *. float_of_int count /. float_of_int n in
    Printf.printf "workload %s over %d instructions\n" config.Fom_trace.Config.name n;
    Printf.printf "mean latency (short misses folded in): %.2f cycles\n"
      p.Fom_analysis.Profile.avg_latency;
    let rows =
      [
        [ "branches"; Printf.sprintf "%.1f" (ki p.Fom_analysis.Profile.branches) ];
        [ "mispredictions"; Printf.sprintf "%.2f" (ki p.Fom_analysis.Profile.mispredictions) ];
        [ "L1I misses"; Printf.sprintf "%.2f" (ki p.Fom_analysis.Profile.l1i_misses) ];
        [ "L2I misses"; Printf.sprintf "%.2f" (ki p.Fom_analysis.Profile.l2i_misses) ];
        [ "short data misses"; Printf.sprintf "%.2f" (ki p.Fom_analysis.Profile.short_misses) ];
        [ "long data misses"; Printf.sprintf "%.2f" (ki p.Fom_analysis.Profile.long_misses) ];
      ]
    in
    Fom_util.Table.print ~header:[ "event"; "per 1000 instructions" ] rows;
    print_endline "long-miss group sizes (size: groups):";
    List.iter
      (fun (size, count) -> Printf.printf "  %3d: %d\n" size count)
      (Fom_util.Distribution.to_list p.Fom_analysis.Profile.long_miss_groups)
  in
  let term = Term.(const run $ workload_arg $ seed_arg $ instructions_arg 100_000) in
  Cmd.v
    (Cmd.info "profile" ~doc:"Functional cache/branch-predictor trace profiling (Section 5).")
    term

(* fom model *)
let model_cmd =
  let run config seed n width depth window rob =
    let program = program_of config seed in
    let params = params_of width depth window rob in
    let inputs = Fom_analysis.Characterize.inputs ~params program ~n in
    Printf.printf "inputs: alpha %.2f beta %.2f latency %.2f; per-ki rates: br %.2f, l1i %.2f, long %.2f (group factor %.2f)\n"
      inputs.Fom_model.Inputs.alpha inputs.Fom_model.Inputs.beta
      inputs.Fom_model.Inputs.avg_latency
      (1000.0 *. inputs.Fom_model.Inputs.mispredictions_per_instr)
      (1000.0 *. inputs.Fom_model.Inputs.l1i_misses_per_instr)
      (1000.0 *. inputs.Fom_model.Inputs.long_misses_per_instr)
      (Fom_model.Inputs.long_group_factor inputs);
    Format.printf "%a@." Fom_model.Cpi.pp (Fom_model.Cpi.evaluate params inputs)
  in
  let term =
    Term.(
      const run $ workload_arg $ seed_arg $ instructions_arg 100_000 $ width_arg $ depth_arg
      $ window_arg $ rob_arg)
  in
  Cmd.v (Cmd.info "model" ~doc:"Evaluate the first-order model (paper eq. 1).") term

(* fom simulate *)
let simulate_cmd =
  let ideal_flags =
    Arg.(
      value
      & vflag_all []
          [
            (`Icache, info [ "ideal-icache" ] ~doc:"Perfect instruction cache.");
            (`Dcache, info [ "ideal-dcache" ] ~doc:"Perfect data cache.");
            (`Branch, info [ "ideal-branch" ] ~doc:"Perfect branch prediction.");
          ])
  in
  let run config seed n width depth window rob ideals metrics trace_out =
    enable_observability metrics trace_out;
    let program = program_of config seed in
    let machine = machine_of width depth window rob in
    let cache = machine.Fom_uarch.Config.cache in
    let cache =
      if List.mem `Icache ideals then { cache with Fom_cache.Hierarchy.l1i = Ideal } else cache
    in
    let cache =
      if List.mem `Dcache ideals then { cache with Fom_cache.Hierarchy.l1d = Ideal } else cache
    in
    let machine = { machine with Fom_uarch.Config.cache } in
    let machine =
      if List.mem `Branch ideals then
        { machine with Fom_uarch.Config.predictor = Fom_branch.Predictor.Ideal }
      else machine
    in
    let stats = Fom_uarch.Simulate.run machine program ~n in
    Format.printf "%a@." Fom_uarch.Stats.pp stats;
    report_observability metrics trace_out
  in
  let term =
    Term.(
      const run $ workload_arg $ seed_arg $ instructions_arg 100_000 $ width_arg $ depth_arg
      $ window_arg $ rob_arg $ ideal_flags $ metrics_flag $ trace_out_arg)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run the detailed cycle-level simulator.") term

(* fom compare *)
let compare_cmd =
  let all_flag =
    Arg.(value & flag & info [ "all" ] ~doc:"Compare across all twelve workloads.")
  in
  let run config seed n width depth window rob all =
    let params = params_of width depth window rob in
    (* A bad machine gets the model's diagnostics, before any work. *)
    Fom_model.Params.validate params;
    let machine = machine_of width depth window rob in
    let configs = if all then Fom_workloads.Spec2000.all else [ config ] in
    let errs = ref [] in
    let rows =
      List.map
        (fun config ->
          let program = program_of config seed in
          (* The simulation packs the longer trace, which the
             characterization then reuses. *)
          let sim = Fom_uarch.Stats.cpi (Fom_uarch.Simulate.run machine program ~n) in
          let inputs = Fom_analysis.Characterize.inputs ~params program ~n in
          let model = Fom_model.Cpi.total (Fom_model.Cpi.evaluate params inputs) in
          let err = 100.0 *. (model -. sim) /. sim in
          errs := Float.abs err :: !errs;
          [
            config.Fom_trace.Config.name;
            Fom_util.Table.float_cell sim;
            Fom_util.Table.float_cell model;
            Fom_util.Table.float_cell ~decimals:1 err;
          ])
        configs
    in
    Fom_util.Table.print ~header:[ "workload"; "sim CPI"; "model CPI"; "err%" ] rows;
    if all then
      Printf.printf "mean |error| %.1f%%, max %.1f%%\n"
        (Fom_util.Stats.mean (Array.of_list !errs))
        (Fom_util.Stats.max (Array.of_list !errs))
  in
  let term =
    Term.(
      const run $ workload_arg $ seed_arg $ instructions_arg 150_000 $ width_arg $ depth_arg
      $ window_arg $ rob_arg $ all_flag)
  in
  Cmd.v (Cmd.info "compare" ~doc:"Model CPI against detailed simulation (paper Figure 15).") term

(* fom trace *)
let trace_cmd =
  let path_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace file to write.")
  in
  let run config seed n path =
    let program = program_of config seed in
    Fom_trace.Trace_file.save ~path (Fom_trace.Source.of_program program) ~n;
    Printf.printf "wrote %d instructions of %s to %s\n" n config.Fom_trace.Config.name path
  in
  let term = Term.(const run $ workload_arg $ seed_arg $ instructions_arg 100_000 $ path_arg) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Export a workload's instruction trace in the text format accepted back by the \
          analysis tools (see Fom_trace.Trace_file).")
    term

(* fom workloads *)
let workloads_cmd =
  let run n =
    let rows =
      List.map
        (fun config ->
          let program = Fom_trace.Program.generate config in
          let profile = Fom_analysis.Profile.run program ~n in
          let curve = Fom_analysis.Iw_curve.measure ~n:(n / 5) program in
          let ki count = 1000.0 *. float_of_int count /. float_of_int n in
          [
            config.Fom_trace.Config.name;
            Fom_util.Table.float_cell ~decimals:2 (Fom_analysis.Iw_curve.alpha curve);
            Fom_util.Table.float_cell ~decimals:2 (Fom_analysis.Iw_curve.beta curve);
            Fom_util.Table.float_cell ~decimals:2 profile.Fom_analysis.Profile.avg_latency;
            Fom_util.Table.float_cell ~decimals:1 (ki profile.Fom_analysis.Profile.mispredictions);
            Fom_util.Table.float_cell ~decimals:1 (ki profile.Fom_analysis.Profile.l1i_misses);
            Fom_util.Table.float_cell ~decimals:1 (ki profile.Fom_analysis.Profile.short_misses);
            Fom_util.Table.float_cell ~decimals:1 (ki profile.Fom_analysis.Profile.long_misses);
          ])
        all_workloads
    in
    Fom_util.Table.print
      ~header:
        [ "workload"; "alpha"; "beta"; "latency"; "br/ki"; "l1i/ki"; "short/ki"; "long/ki" ]
      rows
  in
  let term = Term.(const run $ instructions_arg 50_000) in
  Cmd.v
    (Cmd.info "workloads" ~doc:"Characterize every bundled workload preset.")
    term

(* fom check *)
let check_cmd =
  let workload_opt =
    Arg.(
      value
      & opt (some workload_conv) None
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:"Check only this workload (default: every bundled workload).")
  in
  let deep_flag =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Also characterize each workload (IW fit + profile) and validate the derived \
             model inputs.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the deep sweep (default: $(b,FOM_JOBS) or the machine's \
             core count). The sweep is deterministic: $(b,--jobs 1) reports exactly what a \
             parallel run reports.")
  in
  let run width depth window rob workload deep n jobs seed metrics trace_out =
    let module C = Fom_check.Checker in
    enable_observability metrics trace_out;
    let params = params_of width depth window rob in
    let machine = machine_of width depth window rob in
    let workloads = match workload with Some w -> [ w ] | None -> all_workloads in
    (* With --seed, each workload characterizes under its own derived
       seed: the root generator is split into per-task seeds *before*
       the parallel fan-out, so the report is independent of worker
       count and scheduling order. *)
    let task_seeds =
      Option.map
        (fun root ->
          Fom_util.Rng.split_seeds (Fom_util.Rng.create root) (List.length workloads))
        seed
    in
    let deep_diags (index, config) =
      let prefix = "workload." ^ config.Fom_trace.Config.name ^ "." in
      match
        let program = program_of config (Option.map (fun a -> a.(index)) task_seeds) in
        Fom_analysis.Characterize.inputs ~params program ~n
      with
      | inputs -> C.within prefix (Fom_model.Inputs.check inputs)
      | exception C.Invalid ds -> C.within prefix ds
    in
    (* The deep sweep defaults to the machine's recommended domain
       count (sequential on a single core); an explicit --jobs beyond
       it is honored but flagged FOM-E004. *)
    let jobs_diags, deep_results =
      if not deep then ([], [])
      else
        let resolved, warnings = Fom_exec.Pool.resolve_jobs ?requested:jobs () in
        ( warnings,
          Fom_exec.Pool.with_pool ~jobs:resolved (fun pool ->
              Fom_exec.Pool.map pool ~f:deep_diags
                (List.mapi (fun index config -> (index, config)) workloads)) )
    in
    let diags =
      C.all
        (Fom_model.Params.check params
        :: Fom_uarch.Config.check machine
        :: jobs_diags
        :: List.map Fom_trace.Config.check workloads
        @ deep_results)
    in
    Format.printf "%a@." C.pp_report diags;
    report_observability metrics trace_out;
    if C.has_errors diags then exit 1
  in
  let term =
    Term.(
      const run $ width_arg $ depth_arg $ window_arg $ rob_arg $ workload_opt $ deep_flag
      $ instructions_arg 20_000 $ jobs_arg $ seed_arg $ metrics_flag
      $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate the machine parameters and workload configurations, reporting every \
          diagnostic (exit 1 if any is an error).")
    term

(* fom trends *)
let trends_cmd =
  let run () =
    let widths = [ 2; 3; 4; 8 ] in
    let depths = List.init 100 (fun i -> i + 1) in
    let rows = Fom_model.Trends.bips_vs_depth ~widths ~depths () in
    List.iter
      (fun w ->
        Printf.printf "issue %d: optimal front-end depth %d stages\n" w
          (Fom_model.Trends.optimal_depth (List.assoc w rows)))
      widths;
    let n4 = Fom_model.Trends.mispred_distance_for_fraction ~width:4 ~fraction:0.3 () in
    let n8 = Fom_model.Trends.mispred_distance_for_fraction ~width:8 ~fraction:0.3 () in
    Printf.printf
      "instructions between mispredictions for 30%% time near peak: %d (width 4) -> %d (width 8), %.1fx\n"
      n4 n8
      (float_of_int n8 /. float_of_int n4)
  in
  let term = Term.(const run $ const ()) in
  Cmd.v (Cmd.info "trends" ~doc:"The Section 6 microarchitecture trend studies.") term

(* Bad flag values and unusable paths end in a report on stderr and
   exit 1, as [fom check] reports its diagnostics, never in cmdliner's
   uncaught-exception exit. *)
let () =
  let doc = "the first-order superscalar processor model (Karkhanis & Smith, ISCA 2004)" in
  let info = Cmd.info "fom" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [ iw_cmd; profile_cmd; model_cmd; simulate_cmd; compare_cmd; trends_cmd; workloads_cmd;
        trace_cmd; check_cmd ]
  in
  match Cmd.eval ~catch:false cmd with
  | code -> exit code
  | exception Fom_check.Checker.Invalid ds ->
      Format.eprintf "%a@." Fom_check.Checker.pp_report ds;
      exit 1
  | exception Sys_error message ->
      prerr_endline ("fom: " ^ message);
      exit 1
