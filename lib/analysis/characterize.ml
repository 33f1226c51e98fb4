module Inputs = Fom_model.Inputs
module Params = Fom_model.Params
module Packed = Fom_trace.Packed

let assemble ~name ~n curve (profile : Profile.t) =
  {
    Inputs.name;
    instructions = n;
    alpha = Float.max 0.01 (Iw_curve.alpha curve);
    (* A dependence-saturated trace fits a flat (or noise-negative)
       exponent; clamp into the model's valid (0, 1] range. *)
    beta = Float.min 1.0 (Float.max 0.01 (Iw_curve.beta curve));
    fit_r2 = curve.Iw_curve.fit.Fom_util.Fit.r2;
    avg_latency = Float.max 1.0 profile.Profile.avg_latency;
    mispredictions_per_instr = Profile.per_instr profile profile.Profile.mispredictions;
    mispred_bursts = profile.Profile.mispred_bursts;
    l1i_misses_per_instr = Profile.per_instr profile profile.Profile.l1i_misses;
    l2i_misses_per_instr = Profile.per_instr profile profile.Profile.l2i_misses;
    short_misses_per_instr = Profile.per_instr profile profile.Profile.short_misses;
    long_misses_per_instr = Profile.per_instr profile profile.Profile.long_misses;
    long_miss_groups = profile.Profile.long_miss_groups;
    dtlb_misses_per_instr = Profile.per_instr profile profile.Profile.dtlb_misses;
    dtlb_groups = profile.Profile.dtlb_groups;
  }

let curve_and_inputs_of_packed ?pool ?windows ?iw_instructions ?cache ?predictor ?latencies
    ?grouping ?dtlb ~(params : Params.t) packed ~n =
  Params.validate params;
  if Packed.length packed < n then
    Fom_check.Checker.(
      run_exn
        (fail ~code:"FOM-I033" ~path:"characterize.trace"
           (Printf.sprintf
              "packed trace of %d instructions is shorter than the %d-instruction profile"
              (Packed.length packed) n)));
  let curve = Iw_curve.measure_packed ?pool ?windows ?n:iw_instructions packed in
  let profile =
    Profile.run_packed ?cache ?predictor ?latencies ?grouping ?dtlb
      ~burst_window:params.Params.window_size ~group_window:params.Params.rob_size packed ~n
  in
  (curve, profile, assemble ~name:(Packed.label packed) ~n curve profile)

let inputs_of_source ?pool ?windows ?iw_instructions ?cache ?predictor ?latencies ?grouping
    ?dtlb ~params source ~n =
  (* The machine is checked before any work: the model would reject
     it only after the whole characterization. *)
  Params.validate params;
  (* Pack the trace once, sized for whichever pass reads furthest: the
     profile's [n] or the IW sweep's instructions plus its largest
     window of fetch-ahead. Both passes then replay the same flat
     columns with no further decode of the underlying source. *)
  let iw_instructions = Option.value iw_instructions ~default:30_000 in
  let windows = Option.value windows ~default:Iw_curve.default_windows in
  let max_window = List.fold_left Int.max 1 windows in
  let packed = Packed.of_source source ~n:(Int.max n (iw_instructions + max_window)) in
  let _, _, result =
    curve_and_inputs_of_packed ?pool ~windows ~iw_instructions ?cache ?predictor ?latencies
      ?grouping ?dtlb ~params packed ~n
  in
  result

let inputs ?pool ?windows ?iw_instructions ?cache ?predictor ?latencies ?grouping ?dtlb
    ~params program ~n =
  inputs_of_source ?pool ?windows ?iw_instructions ?cache ?predictor ?latencies ?grouping
    ?dtlb ~params
    (Fom_trace.Source.of_program program)
    ~n
