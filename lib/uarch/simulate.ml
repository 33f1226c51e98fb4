let run_packed config packed ~n = Machine.run (Machine.create config packed) ~n

let run_source config source ~n =
  (* Validate before sizing the packing from the configuration. *)
  Config.validate config;
  let packed = Fom_trace.Packed.of_source source ~n:(n + Config.inflight_span config) in
  run_packed config packed ~n

let run config program ~n =
  run_source config (Fom_trace.Source.of_program program) ~n
