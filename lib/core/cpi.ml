module Iw = Iw_characteristic

type branch_mode = Measured_burst | Paper_constant
type dcache_mode = Rob_fill_corrected | Paper_delay

type breakdown = {
  steady : float;
  branch : float;
  l1i : float;
  l2i : float;
  dcache : float;
  dtlb : float;
}

let total b = b.steady +. b.branch +. b.l1i +. b.l2i +. b.dcache +. b.dtlb

let characteristic (params : Params.t) (inputs : Inputs.t) =
  Iw.make ~alpha:inputs.Inputs.alpha ~beta:inputs.Inputs.beta
    ~avg_latency:inputs.Inputs.avg_latency
    ~issue_width:(float_of_int params.Params.width) ()

let compute ?(branch_mode = Measured_burst) ?(dcache_mode = Rob_fill_corrected) params inputs =
  Params.validate params;
  Inputs.validate inputs;
  let iw = characteristic params inputs in
  let rob_fill =
    match dcache_mode with
    | Rob_fill_corrected -> Penalties.rob_fill_estimate iw params
    | Paper_delay -> 0.0
  in
  let steady = 1.0 /. Iw.steady_state_ipc iw ~window:params.Params.window_size in
  let transients = Penalties.transients iw params in
  let branch_penalty =
    match branch_mode with
    | Measured_burst ->
        Penalties.branch_misprediction transients params
          ~burst:(Inputs.mispred_burst_mean inputs)
    | Paper_constant -> Penalties.branch_misprediction_paper params
  in
  {
    steady;
    branch = inputs.Inputs.mispredictions_per_instr *. branch_penalty;
    l1i =
      inputs.Inputs.l1i_misses_per_instr
      *. Penalties.icache_miss transients params ~delay:params.Params.short_delay;
    l2i =
      inputs.Inputs.l2i_misses_per_instr
      *. Penalties.icache_miss transients params ~delay:params.Params.long_delay;
    dcache =
      inputs.Inputs.long_misses_per_instr
      *. Penalties.dcache_long_miss ~rob_fill params
           ~group_factor:(Inputs.long_group_factor inputs);
    dtlb =
      (* TLB walks act like (shorter) long misses: blocked retirement
         for the walk, overlapping within a ROB reach (Section 7). *)
      inputs.Inputs.dtlb_misses_per_instr
      *. float_of_int params.Params.dtlb_walk
      *. Inputs.dtlb_group_factor inputs;
  }

let s_evaluate = Fom_obs.Span.id "model.evaluate"

(* The span's closure is built only while tracing, so an untraced
   evaluation allocates no more than [compute]. *)
let evaluate ?branch_mode ?dcache_mode params inputs =
  if Fom_obs.Sink.enabled () then
    Fom_obs.Span.with_ s_evaluate (fun () -> compute ?branch_mode ?dcache_mode params inputs)
  else compute ?branch_mode ?dcache_mode params inputs

let pp fmt b =
  Format.fprintf fmt
    "@[<v>CPI %.3f (IPC %.3f)@,\
     \ ideal   %.3f@,\
     \ branch  %.3f@,\
     \ L1 I$   %.3f@,\
     \ L2 I$   %.3f@,\
     \ D-cache %.3f@,\
     \ D-TLB   %.3f@]"
    (total b) (1.0 /. total b) b.steady b.branch b.l1i b.l2i b.dcache b.dtlb
