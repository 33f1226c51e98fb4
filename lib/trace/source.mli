(** Replayable instruction sources.

    A [Source.t] is a plain description of what to replay, not a
    producer of instructions. There are three kinds: the synthetic
    generator ({!of_program}), a phase schedule of generators
    ({!of_schedule}, built by {!Phases.source}) and a recorded trace
    ({!of_instrs}, or a trace file read by {!Trace_file.load} — the
    bring-your-own-trace path for driving the model with instruction
    traces produced elsewhere).

    Nothing reads a source instruction by instruction:
    {!Packed.of_source} fills flat columns with the source's first [n]
    instructions, using exactly one column writer per kind, and the
    functional profiler, the IW kernel, the detailed simulator and
    trace export all replay those columns. *)

type kind =
  | Generator of { program : Program.t; seed : int option }
      (** a {!Stream} over the program, with an optional stream seed *)
  | Schedule of (Program.t * int) list
      (** phases in order, each with its positive instruction budget;
          every activation restarts its program's stream, and after the
          last phase the schedule repeats *)
  | Recorded of Fom_isa.Instr.t array
      (** non-empty, in dynamic index order; past its end the trace
          repeats from the start with re-based indices and
          dependences, so consumers may read any [n] *)

type t = private { label : string; kind : kind }

val label : t -> string
(** Human-readable origin (workload name or file path). *)

val of_program : ?seed:int -> Program.t -> t
(** Replay the synthetic program from instruction 0. [?seed] passes an
    explicit stream seed through to {!Stream.create}: the program stays,
    its dynamic draws change. Only tests set it; a reseeded workload
    ([fom check --deep --seed]) regenerates the program from a reseeded
    config instead. *)

val of_schedule : label:string -> (Program.t * int) list -> t
(** A phase schedule. Dynamic indices are globally sequential and
    each phase's dependences are re-based to the index its activation
    starts at. [FOM-T041] on an empty schedule or a budget below 1
    ({!Phases.source} reports both per phase first). *)

val of_instrs : ?label:string -> Fom_isa.Instr.t array -> t
(** Replay a materialized trace. [FOM-T110] unless the array is
    non-empty, numbered from 0 in order, and every memory address and
    control target is non-negative (the packed columns use [-1] for
    "none"). *)
