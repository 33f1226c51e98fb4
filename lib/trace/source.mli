(** Replayable instruction sources.

    A [Source.t] is a *factory* of [unit -> Instr.t] thunks: each
    [fresh] call restarts the trace from the beginning. The functional
    profiler, the IW simulation and the detailed simulator do not read
    sources directly: {!Packed.of_source} packs a source's first [n]
    instructions once into flat columns, and every pass replays those.
    Only packing and trace export ({!record}, {!save}) pull
    instructions through a thunk.

    Sources come from three places: the synthetic generator
    ({!of_program}), a materialized array ({!of_instrs}), or a trace
    file ({!load}) — the last is the bring-your-own-trace path for
    driving the model with instruction traces produced elsewhere.

    The file format is line-oriented text, one instruction per line
    (dynamic index is implicit), written by {!save}:

    {v
    fom-trace 1
    <class> <pc-hex> <mem-hex|-> <dir> <target-hex|-> <dep>...
    v}

    where [<class>] is an {!Fom_isa.Opclass.to_string} name, [<dir>]
    is [T]/[N] for control instructions and [-] otherwise, and each
    [<dep>] is the dynamic index of a true producer. Destination
    registers are assigned round-robin on load (only dependence
    structure matters to the model). *)

type t

val label : t -> string
(** Human-readable origin (workload name or file path). *)

val fresh : t -> unit -> Fom_isa.Instr.t
(** A thunk restarting the trace from instruction 0. *)

val stream : t -> Stream.t option
(** A fresh {!Stream} positioned at instruction 0 when the source
    replays the synthetic generator ({!of_program}), [None] for every
    other source. Its {!Stream.step} walk is the one [fresh] decodes. *)

val of_program : ?seed:int -> Program.t -> t
(** Replay the synthetic program (each thunk is a new {!Stream}).
    [?seed] passes an explicit per-task stream seed through to
    {!Stream.create} — parallel sweeps split one root generator with
    {!Fom_util.Rng.split_seeds} *before* fanning out, so every task
    replays the same trace no matter which domain runs it. *)

val of_factory : label:string -> (unit -> unit -> Fom_isa.Instr.t) -> t
(** Wrap an arbitrary thunk factory; each call of the factory must
    restart the trace deterministically from instruction 0. *)

val of_instrs : ?label:string -> Fom_isa.Instr.t array -> t
(** Replay a materialized trace; past its end the last instructions
    repeat from the start with re-based indices, so consumers may read
    any [n]. The array must be non-empty and in index order. *)

val record : t -> n:int -> Fom_isa.Instr.t array
(** Materialize the first [n] instructions. *)

val save : path:string -> t -> n:int -> unit
(** Write the first [n] instructions in the text format above. *)

val load : path:string -> t
(** Parse a trace file into a replayable source (eagerly).
    @raise Fom_check.Checker.Invalid on malformed input, with a
    [FOM-T10x] diagnostic whose path is [file:line] (1-based) and
    whose message quotes the offending line. *)
