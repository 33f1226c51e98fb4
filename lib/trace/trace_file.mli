(** The [fom-trace 1] text format: {!save} and {!load} are its one
    printer and its one parser.

    The format is line-oriented text, one instruction per line
    (dynamic index is implicit):

    {v
    fom-trace 1
    <class> <pc-hex> <mem-hex|-> <dir> <target-hex|-> <dep>...
    v}

    where [<class>] is an {!Fom_isa.Opclass.to_string} name, [<dir>]
    is [T]/[N] for control instructions and [-] otherwise, and each
    [<dep>] is the dynamic index of a true producer. Destination
    registers are assigned round-robin on load (only dependence
    structure matters to the model). *)

val save : path:string -> Source.t -> n:int -> unit
(** Write the first [n] instructions ([n > 0]), decoded from the
    source's {!Packed} columns. *)

val load : path:string -> Source.t
(** Parse a trace file, eagerly, into a recorded source labelled with
    the path.
    @raise Fom_check.Checker.Invalid on malformed input, with a
    [FOM-T10x] diagnostic whose path is [file:line] (1-based) and
    whose message quotes the offending line. A pc, address or target
    that does not parse as a non-negative hex number, or a direction
    other than [T], [N] or [-], is [FOM-T104]; an address or a
    direction the class does not take, or a missing one, is
    [FOM-T106]. A file that cannot be read (missing, a directory) is
    [FOM-T100], with the path as the diagnostic path. *)
