(** Replayable instruction sources.

    A [Source.t] is a plain description of what to replay, not a
    producer of instructions. There are three kinds: the synthetic
    generator ({!of_program}), a phase schedule of generators
    ({!of_schedule}, built by {!Phases.source}) and a recorded trace
    ({!of_columns}, filled by {!Trace_file.load} — the
    bring-your-own-trace path for driving the model with instruction
    traces produced elsewhere).

    Nothing reads a source instruction by instruction:
    {!Packed.of_source} fills flat columns with the source's first [n]
    instructions, using exactly one column writer per kind, and the
    functional profiler, the IW kernel, the detailed simulator and
    trace export all replay those columns. *)

type columns = {
  op : int array;
  pc : int array;
  ea : int array;
  dep_off : int array;
  dep_val : int array;
}
(** A recorded trace in the {!Packed} column encoding, one row per
    dynamic instruction: [op], [pc], [ea], and row [i]'s producers at
    [dep_val.(dep_off.(i)) .. dep_val.(dep_off.(i+1) - 1)]. *)

type kind =
  | Generator of Program.t  (** a {!Stream} over the program *)
  | Schedule of (Program.t * int) list
      (** phases in order, each with its positive instruction budget;
          every activation restarts its program's stream, and after the
          last phase the schedule repeats *)
  | Recorded of columns
      (** non-empty, validated by {!of_columns}; past its end the
          trace repeats from the start with re-based dependences, so
          consumers may read any [n] *)

type t = private { label : string; kind : kind }

val label : t -> string
(** Human-readable origin (workload name or file path). *)

val of_program : Program.t -> t
(** Replay the synthetic program from instruction 0. *)

val of_schedule : label:string -> (Program.t * int) list -> t
(** A phase schedule. Dynamic indices are globally sequential and
    each phase's dependences are re-based to the index its activation
    starts at. [FOM-T041] on an empty schedule or a budget below 1
    ({!Phases.source} reports both per phase first). *)

val of_columns : ?label:string -> columns -> t
(** Replay a recorded trace. [FOM-T110] unless there is at least one
    row, the columns agree in length ([dep_off] has one entry more),
    every [op] is an {!Fom_isa.Opclass.to_int} tag, memory and control
    operations alone carry a non-negative [ea] (every other row holds
    [-1]), [dep_off] does not decrease and ends inside [dep_val], and
    every dependence names an earlier row. The columns are the
    caller's and are not copied. *)
