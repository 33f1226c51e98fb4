(** Packed structure-of-arrays trace representation.

    A [Packed.t] materializes the first [n] instructions of a
    {!Source.t} once, into flat [int] arrays — one cache-friendly
    column per field, no per-instruction heap records. The packing is
    immutable after construction, so one packed trace is safely shared
    across an entire window sweep and across {!Fom_exec.Pool} domains
    without copying.

    The columns (all indexed by dynamic instruction, except the
    dependence columns which use compressed-sparse-row layout):

    - [tag]: operation class as {!Fom_isa.Opclass.to_int};
    - [pc]: instruction address;
    - [dst]: destination register as {!Fom_isa.Reg.to_int}, or [-1];
    - [srcs]: source registers packed into one word (bits 0-1 the
      count, then 8 bits per register);
    - [dep_off]/[dep_val]: instruction [i]'s true producers are
      [dep_val.(dep_off.(i)) .. dep_val.(dep_off.(i+1) - 1)], in
      instruction-field order;
    - [mem]: effective address, or [-1];
    - [ctrl]: [-1] for non-control instructions, else
      [(target lsl 1) lor taken].

    The record is exposed so simulation kernels can index the columns
    directly; treat every array as read-only. *)

type t = private {
  label : string;
  len : int;
  tag : int array;
  pc : int array;
  dst : int array;
  srcs : int array;
  dep_off : int array;
  dep_val : int array;
  mem : int array;
  ctrl : int array;
}

val of_source : ?label:string -> Source.t -> n:int -> t
(** Materialize the first [n] instructions ([FOM-T130] if [n <= 0]).
    A generator-backed source ({!Source.of_program}) is packed by
    stepping its {!Stream} straight into the columns, allocating
    nothing per instruction; any other source is read one
    {!Fom_isa.Instr.t} at a time, its fields validated as they are
    packed. Both paths yield the same columns for the same trace. *)

val length : t -> int
(** Number of packed instructions. *)

val label : t -> string
(** Human-readable origin, inherited from the source. *)

val instr : t -> int -> Fom_isa.Instr.t
(** Decode dynamic instruction [i] ([FOM-T131] if negative). Past the
    end the trace wraps with re-based indices and dependences, exactly
    like {!Source.of_instrs} replay. *)
