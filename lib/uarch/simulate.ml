let run_packed config packed ~n = Machine.run (Machine.create config packed) ~n

let run_source config source ~n =
  (* Validate before sizing the packing from the configuration. *)
  Config.validate config;
  let packed = Fom_trace.Packed.of_source source ~n:(n + Config.inflight_span config) in
  run_packed config packed ~n

let run config program ~n =
  run_source config (Fom_trace.Source.of_program program) ~n

type event_penalty = { events : int; penalty_per_event : float }

let isolate ~base ~faulty ~events program ~n =
  let faulty_stats = run faulty program ~n in
  let base_stats = run base program ~n in
  let n_events = events faulty_stats in
  let delta = faulty_stats.Stats.cycles - base_stats.Stats.cycles in
  {
    events = n_events;
    penalty_per_event =
      (if n_events = 0 then 0.0 else float_of_int delta /. float_of_int n_events);
  }
