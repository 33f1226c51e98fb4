(* Quickstart: model one workload end to end.

     dune exec examples/quickstart.exe

   The flow is the paper's Section 5 recipe: generate (or obtain) a
   trace, derive the model inputs from trace analysis alone, evaluate
   the first-order model, and — optionally — sanity-check against the
   detailed simulator. *)

let () =
  (* 1. A workload: one of the SPECint2000-like presets. *)
  let config = Fom_workloads.Spec2000.find "gzip" in
  let program = Fom_trace.Program.generate config in

  (* 2. The machine: the paper's baseline 4-wide, 5-stage, 48-entry
     window, 128-entry ROB superscalar. *)
  let params = Fom_model.Params.baseline in

  (* 3. Trace analysis: IW power law + functional miss profiling.
     No cycle-level simulation is involved. The trace is packed once
     into flat columns that both analyses replay; 100k instructions
     cover the profile and the IW sweep (30k plus the largest window). *)
  let packed =
    Fom_trace.Packed.of_source (Fom_trace.Source.of_program program) ~n:100_000
  in
  let curve, profile, inputs =
    Fom_analysis.Characterize.curve_and_inputs_of_packed ~params packed ~n:100_000
  in
  Printf.printf "workload %s: alpha %.2f, beta %.2f, mean latency %.2f\n"
    inputs.Fom_model.Inputs.name
    (Fom_analysis.Iw_curve.alpha curve)
    (Fom_analysis.Iw_curve.beta curve)
    inputs.Fom_model.Inputs.avg_latency;
  Printf.printf "mispredictions %.1f/k-instr, long misses %.1f/k-instr\n"
    (1000.0 *. inputs.Fom_model.Inputs.mispredictions_per_instr)
    (1000.0 *. inputs.Fom_model.Inputs.long_misses_per_instr);
  Printf.printf "branches profiled: %d\n\n" profile.Fom_analysis.Profile.branches;

  (* 4. The model: CPI decomposed into steady state plus independent
     miss-event penalties (paper eq. 1). *)
  let breakdown = Fom_model.Cpi.evaluate params inputs in
  Format.printf "%a@.@." Fom_model.Cpi.pp breakdown;

  (* 5. Cross-check against the detailed cycle-level simulator. *)
  let sim = Fom_uarch.Simulate.run Fom_uarch.Config.baseline program ~n:100_000 in
  let sim_cpi = Fom_uarch.Stats.cpi sim in
  let model_cpi = Fom_model.Cpi.total breakdown in
  Printf.printf "detailed simulation CPI %.3f, model CPI %.3f (%.1f%% error)\n" sim_cpi
    model_cpi
    (100.0 *. (model_cpi -. sim_cpi) /. sim_cpi)
