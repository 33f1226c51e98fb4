(** Measured IW curves and their power-law fits (paper Table 1,
    Figures 4–5). *)

type point = { window : int; ipc : float }

type t = {
  points : point list;  (** measured, in increasing window order *)
  fit : Fom_util.Fit.power_law;  (** the log-log line fit *)
}

val default_windows : int list
(** 4, 8, 16, 32, 64, 128, 256 — the paper's Figure 4 range. *)

val measure :
  ?pool:Fom_exec.Pool.t -> ?windows:int list -> ?n:int ->
  ?latencies:Fom_isa.Latency.t ->
  ?issue_limit:int -> Fom_trace.Program.t -> t
(** Run the idealized simulation at each window size and fit. Defaults:
    {!default_windows}, 30_000 instructions per point, unit latencies,
    unbounded issue — the implementation-independent curve.

    Every sweep runs the {!Iw_sim.ipc_of_packed} recurrence kernel
    over a trace packed once ({!Fom_trace.Packed}) and shared by all
    points. [?pool] measures the window points in parallel (one task
    per window) over that same immutable packing, so the points — and
    therefore the fit — are bit-identical to a sequential measurement;
    a [jobs = 1] pool takes exactly the sequential path. *)

val measure_packed :
  ?pool:Fom_exec.Pool.t -> ?windows:int list -> ?n:int ->
  ?latencies:Fom_isa.Latency.t ->
  ?issue_limit:int -> Fom_trace.Packed.t -> t
(** {!measure} over an already-packed trace (no packing cost; callers
    sharing one packing across analyses use this). The packing must
    hold at least [n] plus the largest window instructions
    ([FOM-I033]). *)

val alpha : t -> float
val beta : t -> float
