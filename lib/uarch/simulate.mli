(** The detailed cycle-level simulator.

    Trace-driven, correct-path timing simulation of the paper's
    first-order superscalar machine. Per simulated cycle, in order:
    retire (up to width, in order, completed only), issue (oldest
    first from the window, up to width, operands ready), dispatch
    (front-end pipe into window and ROB, stalling when either is
    full), fetch (up to width; an I-cache miss stalls fetch for the
    fill delay; a mispredicted conditional branch stops fetch of
    useful instructions until the branch completes, after which the
    refilled front end costs its depth — the paper's Figure 7
    transient). Loads probe the data hierarchy at issue: an L1 hit
    costs the L1 latency, an L2 hit the short-miss latency, an L2 miss
    the memory latency; misses overlap freely (unbounded MSHRs), and a
    long-miss load at the ROB head blocks retirement — the paper's
    Section 4.3 mechanism. Wrong-path instructions are not simulated:
    with oldest-first issue they never displace useful issue slots
    (paper, Section 4.1). The paper's five Figure 2 configurations are
    obtained purely by idealizing caches/predictor in the {!Config.t}.

    The trace enters as a {!Fom_trace.Packed.t}: pack first, then
    replay. A run is one call on a cold machine: it validates the
    configuration, replays the packing from dynamic index 0 until [n]
    instructions retire ([FOM-I030] unless [n >= 1]) and reads each
    instruction's fields where the packing keeps them, by dynamic
    index; nothing is decoded or allocated per instruction. The packing
    must cover every instruction the machine fetches — [n] plus
    {!Config.inflight_span} — or fetch raises [FOM-T132].

    Two kernels implement these rules, and every run picks one from the
    data side alone; both give the same statistics and record bit for
    bit.
    - The age-order kernel runs every machine whose timing cannot
      depend on issue order: {!Config.ideal_data_side} (the ideal,
      branch-predictor and I-cache machines of Figure 2, with or
      without a fetch buffer, and every clustered or FU-limited one).
      A load then always takes its hit latency, steering is in
      dispatch order, and an issue slot, a cluster's share of the
      width and a unit go to the oldest ready instructions whatever
      younger ones do, so an instruction's fetch, dispatch, issue,
      completion and retirement cycles follow from older instructions
      alone. It computes them in one pass in program order, at O(1)
      amortised per instruction plus O(1) per cycle the run spans.
    - The event kernel runs every other machine. A real L1D or a dTLB
      gives a load a latency that depends on which accesses went
      before it in issue order, so a load's completion is known only
      once every load that issues before it has. It has one cluster
      and unbounded units ({!Config.check} rejects the others with
      [FOM-M009]) and steps the cycles: the issue stage parks each
      waiting instruction on its blocking producer or in a wakeup
      calendar and keeps the ready ones as bits of an age-ordered
      bitmap, so a cycle costs O(instructions woken), not O(window);
      when none is ready, the run jumps straight to the next cycle at
      which anything can happen. *)

exception Cycle_limit_exceeded
(** Raised when the simulation exceeds its cycle budget — a deadlock
    guard; it should never fire for well-formed traces. *)

val run : Config.t -> Fom_trace.Program.t -> n:int -> Stats.t
(** Simulate [n] instructions of a fresh stream over the program (see
    {!run_source}). *)

val run_source : Config.t -> Fom_trace.Source.t -> n:int -> Stats.t
(** {!run} over any replayable source (e.g. an imported trace): takes a
    packing of at least [n + ]{!Config.inflight_span}[ config]
    instructions from {!Fom_trace.Packed.at_least} and replays it as
    {!run_packed} does. A sweep of machines over one program or
    schedule thus packs it once. A longer in-flight span grows a
    program's packing by the missing rows and repacks a schedule. The
    machine reads no row past its span, so the statistics equal those
    over an exact-length packing. *)

val run_packed : ?cycle_limit:int -> Config.t -> Fom_trace.Packed.t -> n:int -> Stats.t
(** A run over an existing packing, so one packed trace can serve many
    configurations. The default cycle limit is [n] times the most
    cycles the configuration can spend between two retirements: an
    I-cache fill from memory, the front-end depth, a dTLB walk, the
    slowest execution and a few cycles of stage overhead. *)

val run_recorded : Config.t -> Fom_trace.Packed.t -> n:int -> Stats.t * Stats.record
(** Like {!run_packed}, also recording the pipeline — e.g. per-cycle
    issue counts are a histogram of [issue], and fetch restarts after a
    misprediction at the branch's [complete] cycle (paper Figure 19's
    issue ramp). *)
