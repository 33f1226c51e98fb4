(* Hand-built traces for the detailed simulator. A trace is a generator
   from dynamic index to {!Row.t}; it enters the machine the only way
   any trace does, packed, here as a recorded source. *)

(* A run to [n] retirements over the first [n + inflight_span]
   instructions. *)
let run config gen ~n =
  let len = n + Fom_uarch.Config.inflight_span config in
  Fom_uarch.Simulate.run_packed config
    (Fom_trace.Packed.of_source
       (Row.source ~label:"hand-built" (Array.init len gen))
       ~n:len)
    ~n
