module Iw = Iw_characteristic

type transients = { drain : float; ramp : float }

let transients iw (params : Params.t) =
  let window = params.Params.window_size in
  let drain = Transient.drain iw ~window in
  let ramp = Transient.ramp_up iw ~window in
  { drain = drain.Transient.penalty; ramp = ramp.Transient.penalty }

let ensure ~path cond message = Fom_check.Checker.ensure ~code:"FOM-I030" ~path cond message

let branch_misprediction { drain; ramp } params ~burst =
  ensure ~path:"penalties.burst" (burst >= 1.0) "burst size must be at least 1";
  float_of_int params.Params.pipeline_depth +. ((drain +. ramp) /. burst)

let branch_misprediction_paper (params : Params.t) =
  let iw =
    Iw.make ~alpha:1.0 ~beta:0.5 ~issue_width:(float_of_int params.Params.width) ()
  in
  let { drain; ramp } = transients iw params in
  float_of_int params.Params.pipeline_depth +. ((drain +. ramp) /. 2.0)

let icache_miss { drain; ramp } (params : Params.t) ~delay =
  (* A fetch buffer keeps dispatch fed for buffer/width cycles of the
     fill delay (Section 7, extension 2). *)
  let covered = float_of_int params.Params.fetch_buffer /. float_of_int params.Params.width in
  Float.max 0.0 (Float.max 0.0 (float_of_int delay -. covered) +. ramp -. drain)

let dcache_long_miss ?(rob_fill = 0.0) (params : Params.t) ~group_factor =
  ensure ~path:"penalties.group_factor"
    (group_factor > 0.0 && group_factor <= 1.0)
    "group factor must be in (0, 1]";
  ensure ~path:"penalties.rob_fill" (rob_fill >= 0.0) "ROB fill must be non-negative";
  Float.max 0.0 (float_of_int params.Params.long_delay -. rob_fill) *. group_factor

let rob_fill_estimate iw (params : Params.t) =
  (* Steady-state ROB occupancy: the window backlog plus the
     instructions issued but not yet retired (Little's law over the
     mean execution-plus-commit time). The remainder of the ROB fills
     behind the missed load at the dispatch width. *)
  let window = params.Params.window_size in
  let occupancy =
    Iw.steady_state_occupancy iw ~window
    +. (Iw.steady_state_ipc iw ~window *. (iw.Iw.avg_latency +. 1.0))
  in
  Float.max 0.0
    ((float_of_int params.Params.rob_size -. occupancy) /. float_of_int params.Params.width)
