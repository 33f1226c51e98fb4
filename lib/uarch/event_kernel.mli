(** The detailed simulator's event kernel, for every machine the
    age-order kernel does not take: a real L1D or a dTLB, with one
    cluster and unbounded units ({!Config.check} rejects the others with
    [FOM-M009]). It steps the cycles, waking instructions from a
    calendar into an age-ordered ready bitmap and jumping over idle
    cycles. {!Simulate} selects it. *)

val run :
  Config.t -> Fom_trace.Packed.t -> n:int -> limit:int -> record:Stats.record option -> Stats.t
(** {!Age_order.run}'s contract on any valid machine: a run of a cold
    machine to [n >= 1] retirements, raising
    {!Age_order.Cycle_limit_exceeded} if a cycle past [limit] would be
    stepped and [FOM-T132] when fetch runs past the packing. *)
