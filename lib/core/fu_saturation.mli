(** Limited functional units (paper Section 7, extension 1).

    With fully-pipelined units, class [c] can start at most [count_c]
    instructions per cycle, so sustained IPC is bounded by
    [count_c / mix_c] for every class. The binding class lowers the
    machine's saturation level below its nominal issue width, which
    plugs straight into the IW characteristic as a reduced effective
    width (paper: "we can generate a lower saturation level than the
    maximum issue width"). *)

val effective_width :
  Fom_isa.Fu_set.t -> mix:(Fom_isa.Opclass.t -> float) -> width:int -> float
(** [width], or the smallest [count_c / mix_c] over classes with
    positive mix when that is lower (never lower for an unbounded
    set). *)

val binding_class :
  Fom_isa.Fu_set.t -> mix:(Fom_isa.Opclass.t -> float) -> Fom_isa.Opclass.t option
(** The class that limits throughput, when one does. *)
