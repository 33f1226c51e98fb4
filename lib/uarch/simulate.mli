(** Convenience drivers over {!Machine}. *)

val run : Config.t -> Fom_trace.Program.t -> n:int -> Stats.t
(** Simulate [n] instructions of a fresh stream over the program. *)

val run_source : Config.t -> Fom_trace.Source.t -> n:int -> Stats.t
(** {!run} over any replayable source (e.g. an imported trace): packs
    the first [n + ]{!Config.inflight_span}[ config] instructions, then
    replays them with {!run_packed}. *)

val run_packed : Config.t -> Fom_trace.Packed.t -> n:int -> Stats.t
(** {!run} over an existing packing (see {!Machine.create}), so one
    packed trace can serve many configurations. The packing must cover
    every instruction the machine fetches: [n] plus the in-flight span
    ({!Config.inflight_span}), which bounds how far fetch runs ahead of
    retirement, including the last cycle's retire overshoot. *)

type event_penalty = {
  events : int;  (** miss-events of the isolated kind *)
  penalty_per_event : float;  (** measured cycles per event *)
}

val isolate :
  base:Config.t -> faulty:Config.t -> events:(Stats.t -> int) ->
  Fom_trace.Program.t -> n:int -> event_penalty
(** The paper's differencing methodology (Figures 9, 11, 14): simulate
    the same trace under [faulty] (one real structure) and [base]
    (everything ideal), and attribute the cycle difference to the
    miss-events counted by [events] in the faulty run. *)
