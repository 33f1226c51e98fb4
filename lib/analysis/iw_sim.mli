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

    Two kernels compute the identical measurement. {!ipc_of_source} is
    the reference: it keeps the window as an array and rescans it
    every cycle (O(window) per cycle) — kept for its direct
    correspondence to the paper's description and as the oracle the
    fast kernel is property-tested against. {!ipc_of_packed} is the
    production kernel: event-driven over a {!Fom_trace.Packed} trace,
    scanning only instructions actually woken each cycle. The two are
    bit-identical on IPC (exact float equality), not merely close. *)

val ring_size : int
(** Capacity of the completion ring both kernels bound their
    bookkeeping by; window sizes beyond it are rejected ([FOM-I031])
    because completion lookups in the reference kernel would silently
    alias. *)

val ipc :
  ?latencies:Fom_isa.Latency.t -> ?issue_limit:int ->
  Fom_trace.Program.t -> window:int -> n:int -> float
(** [ipc program ~window ~n]: average instructions issued per cycle
    over the first [n] instructions. Default latencies are unit;
    default issue width is unbounded. Packs the first [n + window]
    instructions and runs {!ipc_of_packed} on them. *)

val ipc_of_source :
  ?latencies:Fom_isa.Latency.t -> ?issue_limit:int ->
  Fom_trace.Source.t -> window:int -> n:int -> float
(** The same measurement over any replayable source (e.g. an imported
    trace), computed by the reference window-rescanning kernel — the
    oracle {!ipc_of_packed} is tested against. *)

val ipc_of_packed :
  ?latencies:Fom_isa.Latency.t -> ?issue_limit:int ->
  Fom_trace.Packed.t -> window:int -> n:int -> float
(** The event-driven kernel: same measurement as {!ipc_of_source} on
    the same trace, bit-identical IPC. The packed trace must hold at
    least [n + window] instructions ([FOM-I033]) — the kernel reads
    flat columns and never wraps. *)
