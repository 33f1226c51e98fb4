(* Bechamel timing suite: the paper's implicit speed claim is that the
   analytical model is orders of magnitude faster than detailed
   simulation. One Test.make per reproduced exhibit family, timing the
   computation that regenerates it (at reduced scale). *)

open Bechamel
open Toolkit

let make_tests () =
  let program = Fom_trace.Program.generate (Fom_workloads.Spec2000.find "gzip") in
  let params = Fom_model.Params.baseline in
  let inputs = Fom_analysis.Characterize.inputs ~iw_instructions:2000 ~params program ~n:5000 in
  let square = Fom_model.Iw_characteristic.make ~alpha:1.0 ~beta:0.5 ~issue_width:4.0 () in
  [
    (* Table 1 / Figures 4-6: one IW-curve point, packing included. *)
    Test.make ~name:"iw-sim point (w=32, 2k instrs)"
      (Staged.stage (fun () -> Fom_analysis.Iw_sim.ipc program ~window:32 ~n:2000));
    (* Packed-trace construction alone: one pass over the stream into
       the structure-of-arrays columns. *)
    Test.make ~name:"packed build (10k instrs)"
      (Staged.stage (fun () ->
           ignore
             (Fom_trace.Packed.of_source (Fom_trace.Source.of_program program) ~n:10_000)));
    (* The IW recurrence over a pre-built packing — the inner loop of
       every window sweep. *)
    Test.make ~name:"iw kernel (w=32, 2k instrs)"
      (Staged.stage
         (let packed =
            Fom_trace.Packed.of_source (Fom_trace.Source.of_program program) ~n:2100
          in
          fun () -> ignore (Fom_analysis.Iw_sim.ipc_of_packed packed ~window:32 ~n:2000)));
    (* Figure 8: the analytic transient. *)
    Test.make ~name:"transient drain+ramp"
      (Staged.stage (fun () ->
           ignore (Fom_model.Transient.drain square ~window:48);
           Fom_model.Transient.ramp_up square ~window:48));
    (* Figures 15-16: a full model evaluation (given inputs). *)
    Test.make ~name:"model evaluate"
      (Staged.stage (fun () -> Fom_model.Cpi.evaluate params inputs));
    (* Figures 2, 9, 11, 14: detailed simulation of 1k instructions
       replayed from a pre-built packing, machine creation included. *)
    Test.make ~name:"detailed sim (1k instrs)"
      (Staged.stage
         (let config = Fom_uarch.Config.baseline in
          let packed =
            Fom_trace.Packed.of_source (Fom_trace.Source.of_program program)
              ~n:(1000 + Fom_uarch.Config.inflight_span config)
          in
          fun () -> ignore (Fom_uarch.Simulate.run_packed config packed ~n:1000)));
    (* Input pipeline: functional profiling, per 1k instructions. *)
    Test.make ~name:"functional profile (1k instrs)"
      (Staged.stage (fun () -> ignore (Fom_analysis.Profile.run program ~n:1000)));
    (* Figure 17: one trend row. *)
    Test.make ~name:"trends fig17 row"
      (Staged.stage (fun () ->
           Fom_model.Trends.ipc_vs_depth ~widths:[ 4 ] ~depths:[ 5; 20; 50 ] ()));
    (* Trace generation, per 1k instructions. *)
    Test.make ~name:"trace generation (1k instrs)"
      (Staged.stage
         (let stream = Fom_trace.Stream.create program in
          fun () ->
            for _ = 1 to 1000 do
              ignore (Fom_trace.Stream.next stream)
            done));
    (* Pool overhead: scheduling 64 no-op tasks bounds what the domain
       pool charges on top of the useful work it distributes. *)
    Test.make ~name:"exec pool map (64 no-op tasks)"
      (Staged.stage
         (let pool = Fom_exec.Pool.create () in
          let tasks = List.init 64 (fun i -> i) in
          fun () -> ignore (Fom_exec.Pool.map pool ~f:(fun x -> x) tasks)));
    (* Steal throughput: 512 tiny tasks through the per-worker deques
       bounds the scheduler's own cost per task (push, pop/steal,
       result delivery) when the work itself is negligible. *)
    Test.make ~name:"exec steal throughput (512 tiny tasks)"
      (Staged.stage
         (let pool = Fom_exec.Pool.create () in
          let tasks = List.init 512 (fun i -> i) in
          fun () -> ignore (Fom_exec.Pool.map pool ~f:(fun x -> (x * 31) + 7) tasks)));
    (* Memo contention: 64 demands of one already-computed key bound
       the per-lookup cost of the future cells on the harness's hot
       path (every exhibit row re-demands its sims through the memo). *)
    Test.make ~name:"exec memo lookup (64 demands, 1 key)"
      (Staged.stage
         (let pool = Fom_exec.Pool.create () in
          let memo = Fom_exec.Memo.create ~pool () in
          let demands = List.init 64 (fun i -> i) in
          fun () ->
            ignore
              (Fom_exec.Pool.map pool
                 ~f:(fun _ -> Fom_exec.Memo.get memo "key" (fun () -> 42))
                 demands)));
    (* Observability overhead with the sink in whatever state the
       harness left it (disabled unless --metrics/--trace-out): bounds
       what a span site and a counter site charge the instrumented hot
       paths. Disabled, both should measure as one atomic load and a
       branch. *)
    Test.make ~name:"obs span site (sink as-is)"
      (Staged.stage
         (let s = Fom_obs.Span.id "bench.overhead" in
          fun () ->
            for _ = 1 to 100 do
              Fom_obs.Span.with_ s ignore
            done));
    Test.make ~name:"obs counter site (sink as-is)"
      (Staged.stage
         (let c = Fom_obs.Metrics.counter "bench.overhead_ticks" in
          fun () ->
            for _ = 1 to 100 do
              Fom_obs.Metrics.incr c
            done));
  ]

let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
let instances = Instance.[ monotonic_clock ]

let run () =
  Context.heading "Timing: model vs simulation cost (Bechamel)";
  let tests = Test.make_grouped ~name:"fom" ~fmt:"%s %s" (make_tests ()) in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.merge ols instances (List.map (fun instance -> Analyze.all ols instance raw) instances)
  in
  List.iter (fun v -> Bechamel_notty.Unit.add v (Measure.unit v)) instances;
  let window = { Bechamel_notty.w = 100; h = 1 } in
  let image =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run results
  in
  Notty_unix.output_image image;
  print_newline ()
