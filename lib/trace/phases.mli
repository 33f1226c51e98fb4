(** Phased workloads.

    The paper notes (Section 7) that workloads whose behaviour shifts
    over time may need each *phase* modeled separately, with the
    results combined — a single set of whole-trace statistics blurs
    distinct regimes (one IW fit across phases with different ILP, one
    miss-group distribution across different locality patterns).

    A phase schedule concatenates synthetic workloads: each phase runs
    its config's trace for its instruction budget, then the next phase
    begins; after the last phase the schedule repeats. Dynamic indices
    are globally sequential and dependences never cross a phase
    boundary (each activation restarts the phase's stream — the
    regime change is a working-set change, as in real programs).

    A schedule is data: {!source} generates each phase's program once
    and describes the schedule as a {!Source.Schedule}, which
    {!Packed.of_source} fills by stepping each activation's stream
    straight into the columns. *)

type phase = {
  config : Config.t;
  instructions : int;  (** phase length per activation (> 0) *)
}

val source : phase list -> Source.t
(** The schedule as a replayable source, cycling through the phases.
    The label joins the phase names. Raises
    {!Fom_check.Checker.Invalid} with [FOM-T040] for an empty schedule
    and [FOM-T041] for a phase whose instruction budget is not
    positive. *)

val schedule_length : phase list -> int
(** Instructions in one full pass of the schedule. *)
