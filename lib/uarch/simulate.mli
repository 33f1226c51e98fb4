(** Convenience drivers over {!Machine}. *)

val run : Config.t -> Fom_trace.Program.t -> n:int -> Stats.t
(** Simulate [n] instructions of a fresh stream over the program (see
    {!run_source}). *)

val run_source : Config.t -> Fom_trace.Source.t -> n:int -> Stats.t
(** {!run} over any replayable source (e.g. an imported trace): takes a
    packing of at least [n + ]{!Config.inflight_span}[ config]
    instructions from {!Fom_trace.Packed.at_least} and replays it with
    {!run_packed}. A sweep of machines over one program or schedule
    thus packs it once. A longer in-flight span grows a program's
    packing by the missing rows and repacks a schedule. The machine
    reads no row past its span, so the statistics equal those over an
    exact-length packing. *)

val run_packed : Config.t -> Fom_trace.Packed.t -> n:int -> Stats.t
(** {!run} over an existing packing (see {!Machine.run}), so one
    packed trace can serve many configurations. The packing must cover
    every instruction the machine fetches: [n] plus the in-flight span
    ({!Config.inflight_span}), which bounds how far fetch runs ahead of
    retirement, including the last cycle's retire overshoot. *)
