(** Dynamic instruction streams.

    A stream walks the program's control-flow graph forever, one
    instruction per {!step}, in program order. All mutable state
    (address generators, branch behaviours, dependence sampling) is
    instantiated at {!create}, so two streams over the same program are
    identical instruction-for-instruction — the detailed simulator, the
    functional profilers and the idealized IW simulation all observe
    the same trace. *)

type t

val create : Program.t -> t
(** Fresh stream positioned at the program entry, instruction 0. Its
    dynamic draws (dependence distances, addresses, branch directions)
    descend from the program config's seed. *)

(** The instruction the last {!step} produced, as plain ints in the
    {!Packed} encodings: a column writer copies [tag], [pc] and [ea]
    straight across. *)
type cursor = private {
  mutable pc : int;
  mutable tag : int;  (** {!Fom_isa.Opclass.to_int} *)
  mutable ndeps : int;
  deps : int array;
      (** the first [ndeps] entries are the dynamic indices of the
          true producers, in {!Packed} [dep_val] order: the most
          recently sampled one first *)
  mutable ea : int;  (** the {!Packed} [ea] column's value *)
}

val step : t -> cursor
(** Advance the walk by one instruction and return the stream's cursor
    holding it. The cursor is the same record on every call, valid
    until the next [step]; stepping allocates nothing. *)
