(** Packed structure-of-arrays trace representation.

    A [Packed.t] materializes the first [n] instructions of a
    {!Source.t} once, into flat [int] arrays — one cache-friendly
    column per field, no per-instruction heap records. The packing is
    immutable after construction, so one packed trace is safely shared
    across an entire window sweep and across {!Fom_exec.Pool} domains
    without copying. Packing is the only way a trace reaches the
    passes that replay it, trace export included, and each
    {!Source.kind} has exactly one writer into the columns
    ({!of_source}).

    The columns (all indexed by dynamic instruction, except the
    dependence columns which use compressed-sparse-row layout):

    - [op]: the {!Fom_isa.Opclass.to_int} tag;
    - [pc]: instruction address;
    - [ea]: a load's or store's effective address, a branch's or
      jump's [(target lsl 1) lor taken], else [-1] (only memory
      operations carry an address, only control ones a direction);
    - [dep_off]/[dep_val]: instruction [i]'s true producers are
      [dep_val.(dep_off.(i)) .. dep_val.(dep_off.(i+1) - 1)], in
      instruction-field order; [dep_val] is not trimmed, so entries
      from [dep_off.(len)] on are unused capacity.

    The record is exposed so simulation kernels can index the columns
    directly; treat every array as read-only. *)

type t = private {
  label : string;
  len : int;
  op : int array;
  pc : int array;
  ea : int array;
  dep_off : int array;
  dep_val : int array;
}

val of_source : Source.t -> n:int -> t
(** Materialize the first [n] instructions ([FOM-T130] if [n <= 0]
    or if the columns for [n] rows cannot be allocated).
    Each {!Source.kind} has one column writer: a generator is stepped
    straight into the columns through its {!Stream.step} cursor, a
    phase schedule runs that same writer once per activation with its
    dependences re-based, and a recorded trace is copied field by
    field, wrapping past its end. The two generator writers allocate
    nothing per instruction. *)

val length : t -> int
(** Number of packed instructions. *)

val label : t -> string
(** Human-readable origin, inherited from the source. *)

val instr : t -> int -> Fom_isa.Instr.t
(** Decode dynamic instruction [i] ([FOM-T131] if negative). Past the
    end the trace wraps with re-based indices and dependences, exactly
    like a {!Source.Recorded} replay. *)
