(* Hand-built traces for the detailed simulator. A trace is a generator
   from dynamic index to instruction; it enters the machine the only
   way any trace does, packed, here as a recorded source. *)

(* A machine over the first [n + inflight_span] instructions: enough
   for runs totalling [n] retirements. *)
let machine config gen ~n =
  let n = n + Fom_uarch.Config.inflight_span config in
  Fom_uarch.Machine.create config
    (Fom_trace.Packed.of_source
       (Fom_trace.Source.of_instrs ~label:"hand-built" (Array.init n gen))
       ~n)

let run config gen ~n = Fom_uarch.Machine.run (machine config gen ~n) ~n
