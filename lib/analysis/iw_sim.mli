(** Idealized window-limited dataflow simulation.

    The paper's Section 3 measurement: ideal caches and branch
    prediction, unbounded functional units, unbounded (or optionally
    limited) issue width, instant window refill — the only constraint
    is the issue-window size, plus the trace's true dependences. With
    unit latencies this produces the implementation-independent IW
    curves of Figure 4; with an issue-width limit it produces the
    saturating curves of Figure 6. This is a simple trace-driven
    simulation, not a detailed one — the distinction the paper leans
    on.

    On that machine each instruction's issue cycle follows from the
    instructions older than it, so the kernel is a recurrence over
    instructions in age order with no cycle loop: an instruction issues
    at the first cycle, no earlier than its admission to the window and
    its producers' completions, that still has an issue slot free.
    Admission is one past the issue time that frees its window entry,
    found by a floor pointer over per-cycle issue counts (amortised
    O(1) per instruction). The IPC is bit-identical to a cycle-by-cycle
    simulation that rescans the window oldest-first every cycle.

    With an {!Fom_obs} sink enabled, every evaluation adds to the
    counters [iw.points], [iw.cycles] and [iw.instructions], and counts
    which term bound each instruction's issue cycle:
    [iw.bound.window] (its admission), [iw.bound.dependence] (a
    producer's completion, later than admission) or [iw.bound.width]
    (every earlier cycle was full). The three sum to the [n + window - 1]
    instructions the run considers. *)

val ring_size : int
(** Largest accepted window ([FOM-I031]). The kernel's per-cycle issue
    ring holds about [window * (max latency + 1)] slots, so this cap
    bounds its memory. *)

val ipc_of_packed :
  ?latencies:Fom_isa.Latency.t -> ?issue_limit:int ->
  Fom_trace.Packed.t -> window:int -> n:int -> float
(** [ipc_of_packed packed ~window ~n]: average instructions issued per
    cycle over the first [n] instructions of the packed trace, which
    must hold at least [n + window] of them ([FOM-I033]); the kernel
    reads the flat columns in place. Default latencies are unit;
    default issue width is unbounded. A non-positive window, [n] or
    issue limit is rejected with [FOM-I030]. *)
