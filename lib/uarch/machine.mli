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
    purely by idealizing caches/predictor in the {!Config.t}. *)

type t

type kernel =
  | Scan  (** rescan the whole window every cycle — the reference *)
  | Event  (** wakeup calendar + ready bitmap — the production kernel *)
(** Two implementations of the issue stage compute identical machines.
    [Scan] examines every window entry every cycle, in direct
    correspondence with the modeled oldest-first scan, and steps every
    cycle. [Event] parks each waiting instruction on its blocking
    producer or in a wakeup calendar, keeps the ready ones as bits of
    an age-ordered bitmap and touches only those each cycle —
    O(instructions woken) instead of O(window); when none is ready it
    jumps straight to the next cycle at which anything can happen. It
    is tested to produce statistics, issue records and cycle-limit
    outcomes identical to [Scan]. *)

val create : ?kernel:kernel -> Config.t -> Fom_trace.Packed.t -> t
(** [create config packed] builds a machine replaying a packed trace
    from dynamic index 0. Each instruction's fields are read where the
    packing keeps them, by dynamic index; nothing is decoded or
    allocated per instruction. The packing must cover every
    instruction the machine fetches — [n] plus {!Config.inflight_span}
    for a run to [n] retirements — or fetch raises [FOM-T132].
    [kernel] selects the issue-stage implementation (default
    [Event]). *)

exception Cycle_limit_exceeded
(** Raised when the simulation exceeds its cycle budget — a deadlock
    guard; it should never fire for well-formed traces. *)

val run : ?cycle_limit:int -> t -> n:int -> Stats.t
(** Simulate until [n] instructions retire. The default cycle limit is
    [250 * n + 100_000] (an all-miss trace cannot be slower). *)

val run_recorded : ?cycle_limit:int -> t -> n:int -> Stats.t * int array * int array
(** Like {!run}, additionally recording the per-cycle issue counts and
    the cycles at which a mispredicted branch resolved (fetch
    restarts) — the raw material for empirical issue-ramp curves
    (paper Figure 19) and issue-rate distributions. *)
