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
    (paper, Section 4.1).

    The trace enters as a {!Fom_trace.Packed.t}: pack first, then
    replay. The paper's five Figure 2 configurations are obtained
    purely by idealizing caches/predictor in the {!Config.t}.

    Two kernels implement these rules, and {!run} picks one from the
    configuration; both give the same statistics and record bit for
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
      alone. It computes them in one pass in program order.
    - The event kernel runs every other machine. A real L1D or a dTLB
      gives a load a latency that depends on which accesses went
      before it in issue order, so a load's completion is known only
      once every load that issues before it has. It has one cluster
      and unbounded units ({!Config.check} rejects the others with
      [FOM-M009]) and steps the cycles, waking instructions from a
      calendar into an age-ordered ready bitmap and jumping over idle
      cycles. *)

exception Cycle_limit_exceeded
(** Raised when the simulation exceeds its cycle budget — a deadlock
    guard; it should never fire for well-formed traces. *)

val run : ?cycle_limit:int -> Config.t -> Fom_trace.Packed.t -> n:int -> Stats.t
(** [run config packed ~n] validates [config], then simulates a cold
    machine replaying a packed trace from dynamic index 0 until [n]
    instructions retire ([FOM-I030] unless [n >= 1]). Each
    instruction's fields are read where the packing keeps them, by
    dynamic index; nothing is decoded or allocated per instruction. The
    packing must cover every instruction the machine fetches — [n] plus
    {!Config.inflight_span} — or fetch raises [FOM-T132]. The default
    cycle limit is [n] times the most cycles the configuration can
    spend between two retirements: an I-cache fill from memory, the
    front-end depth, a dTLB walk, the slowest execution and a few
    cycles of stage overhead.

    Picks the kernel from the data side alone: the age-order one when
    the L1D is ideal and there is no dTLB, whatever the clusters and
    units, since their budgets read only older instructions; the event
    kernel otherwise. On the event kernel the issue stage
    parks each waiting instruction on its blocking producer or in a
    wakeup calendar and keeps the ready ones as bits of an age-ordered
    bitmap, so a cycle costs O(instructions woken), not O(window); when
    none is ready, the run jumps straight to the next cycle at which
    anything can happen. The age-order kernel costs O(1) amortised per
    instruction plus O(1) per cycle the run spans. *)

val run_recorded : Config.t -> Fom_trace.Packed.t -> n:int -> Stats.t * Stats.record
(** Like {!run}, also recording the pipeline — e.g. per-cycle issue
    counts are a histogram of [issue], and fetch restarts after a
    misprediction at the branch's [complete] cycle (paper Figure 19's
    issue ramp). *)
