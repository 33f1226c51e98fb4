(** The observability sink: off by default, explicitly enabled.

    The default sink is a no-op: every instrumentation site — span
    begins/ends and counter bumps — checks one
    atomic flag and does nothing else, so instrumented code paths stay
    allocation-free and results (stdout, CSV, JSON numbers) are
    bit-identical whether or not observability is on. Harnesses enable
    recording only when the user asks for it ([--metrics] /
    [--trace-out]).

    Diagnostic codes ([FOM-Oxxx], "observability"):
    - [FOM-O002] — non-positive span buffer capacity *)

val enable : ?span_capacity:int -> unit -> unit
(** Start recording: reset all metrics and span buffers, size new
    per-domain span buffers at [span_capacity] events (default
    [65536]), and open the gate. Call before the work to observe —
    ideally before worker domains spawn, so every domain's buffer
    belongs to the current session. *)

val disable : unit -> unit
(** Close the gate. Recorded data stays readable through
    {!Span.events} / {!Metrics.snapshot} / {!Export}. *)

val enabled : unit -> bool
