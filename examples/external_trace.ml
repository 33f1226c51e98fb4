(* Bring your own trace: export, inspect, re-import, model.

     dune exec examples/external_trace.exe -- [trace-file]

   Without an argument the example exports a synthetic gzip trace to a
   temporary file first — stand-in for a trace produced by any other
   tool — then characterizes and models the *file*, exactly as one
   would with a real instruction trace. The text format is documented
   in [Fom_trace.Trace_file]; anything that can emit

     fom-trace 1
     <class> <pc-hex> <mem-hex|-> <T|N|-> <target-hex|-> <dep>...

   can drive the model. *)

let () =
  let path, cleanup =
    if Array.length Sys.argv > 1 then (Sys.argv.(1), false)
    else begin
      let path = Filename.temp_file "fom-demo" ".trace" in
      let program = Fom_trace.Program.generate (Fom_workloads.Spec2000.find "gzip") in
      Fom_trace.Trace_file.save ~path (Fom_trace.Source.of_program program) ~n:100_000;
      Printf.printf "exported a 100k-instruction synthetic trace to %s\n" path;
      (path, true)
    end
  in
  Fun.protect
    ~finally:(fun () -> if cleanup then Sys.remove path)
    (fun () ->
      let source = Fom_trace.Trace_file.load ~path in
      Printf.printf "loaded trace: %s\n\n" (Fom_trace.Source.label source);

      let params = Fom_model.Params.baseline in
      let packed = Fom_trace.Packed.of_source source ~n:100_000 in
      let curve, profile, inputs =
        Fom_analysis.Characterize.curve_and_inputs_of_packed ~params packed ~n:100_000
      in
      Printf.printf "IW characteristic: I = %.2f * W^%.2f (r2 %.3f), mean latency %.2f\n"
        (Fom_analysis.Iw_curve.alpha curve)
        (Fom_analysis.Iw_curve.beta curve)
        curve.Fom_analysis.Iw_curve.fit.Fom_util.Fit.r2 inputs.Fom_model.Inputs.avg_latency;
      Printf.printf "events per 1000 instructions: %.1f mispredictions, %.1f long misses\n\n"
        (1000.0 *. inputs.Fom_model.Inputs.mispredictions_per_instr)
        (1000.0 *. inputs.Fom_model.Inputs.long_misses_per_instr);
      ignore profile;

      let breakdown = Fom_model.Cpi.evaluate params inputs in
      Format.printf "%a@.@." Fom_model.Cpi.pp breakdown;

      (* The same file drives the detailed simulator. *)
      let sim =
        Fom_uarch.Simulate.run_source Fom_uarch.Config.baseline source ~n:100_000
      in
      Printf.printf "detailed simulation of the trace file: CPI %.3f (model %.3f, %+.1f%%)\n"
        (Fom_uarch.Stats.cpi sim)
        (Fom_model.Cpi.total breakdown)
        (100.0
        *. (Fom_model.Cpi.total breakdown -. Fom_uarch.Stats.cpi sim)
        /. Fom_uarch.Stats.cpi sim))
