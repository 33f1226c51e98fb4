(** The detailed simulator's age-order kernel, for machines whose
    timing cannot depend on issue order: an ideal L1D and no dTLB, with
    any clusters and functional units. It computes each instruction's
    fetch, dispatch, issue, completion and retirement cycles from older
    instructions alone, in one pass in program order, and gives exactly
    the event kernel's statistics and record. {!Simulate} selects it;
    its exception is the one {!Simulate} exports. *)

exception Cycle_limit_exceeded

val run :
  Config.t -> Fom_trace.Packed.t -> n:int -> limit:int -> record:Stats.record option -> Stats.t
(** A run of a cold machine to [n >= 1] retirements
    ({!Simulate.run_packed}); the configuration is valid and order-free.
    Allocates every ring here, sized from the configuration. Raises
    [Cycle_limit_exceeded] if the last of them retires after cycle
    [limit], and [FOM-T132] when fetch would run past the packing before
    the run ends. With a record, fills in the stage cycles of the run's
    events. *)
