(* Hand-built traces for the detailed simulator. A trace is a generator
   from dynamic index to instruction; it enters the machine the only
   way any trace does, packed, here through [Source.of_factory]. *)

let source gen =
  Fom_trace.Source.of_factory ~label:"hand-built" (fun () ->
      let counter = ref 0 in
      fun () ->
        let index = !counter in
        incr counter;
        gen index)

(* A machine over the first [n + inflight_span] instructions: enough
   for runs totalling [n] retirements. *)
let machine ?kernel config gen ~n =
  Fom_uarch.Machine.create ?kernel config
    (Fom_trace.Packed.of_source (source gen) ~n:(n + Fom_uarch.Config.inflight_span config))

let run ?kernel config gen ~n = Fom_uarch.Machine.run (machine ?kernel config gen ~n) ~n
