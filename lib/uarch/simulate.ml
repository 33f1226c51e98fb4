let run_packed config packed ~n = Machine.run config packed ~n

let run_source config source ~n =
  (* Validate before sizing the packing from the configuration. *)
  Config.validate config;
  let rows = Fom_trace.Packed.padded n ~margin:(Config.inflight_span config) in
  let packed = Fom_trace.Packed.at_least source ~n:rows in
  run_packed config packed ~n

let run config program ~n =
  run_source config (Fom_trace.Source.of_program program) ~n
