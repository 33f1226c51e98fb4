(** Micro-workloads with analytically known behaviour.

    Unlike the SPECint2000-like presets, these are single-behaviour
    stress workloads whose model quantities are predictable in closed
    form, which makes them useful both as unit-test fixtures and as
    probes when studying one mechanism in isolation:

    - [serial-chain]: every value-producing instruction depends on
      its predecessor — IPC is 1 at any window size (unit latency).
    - [independent]: no register dependences — the window-limited
      issue rate equals the window (unbounded width) or the width.
    - [pointer-chase]: one dependent load chain over a
      memory-exceeding region — serialized long misses, the worst
      case for the paper's overlap assumption.
    - [streaming]: sequential walks over memory-exceeding regions —
      independent, regularly spaced long misses, the best case.
    - [branchy]: dense, unlearnable branches — misprediction-bound.
    - [loopy]: tiny, perfectly predictable loop nest — near-ideal. *)

val all : Fom_trace.Config.t list
(** Every micro-workload, in the order above. *)
