(** Measured IW curves and their power-law fits (paper Table 1,
    Figures 4–5). *)

type point = { window : int; ipc : float }

type t = {
  points : point list;  (** measured, in increasing window order *)
  fit : Fom_util.Fit.power_law;  (** the log-log line fit *)
}

val default_windows : int list
(** 4, 8, 16, 32, 64, 128, 256 — the paper's Figure 4 range. *)

val measure_packed :
  ?pool:Fom_exec.Pool.t -> ?windows:int list -> ?n:int -> Fom_trace.Packed.t -> t
(** Run the idealized simulation at each window size over an
    already-packed trace and fit, at unit latencies and unbounded
    issue: the implementation-independent curve. Defaults:
    {!default_windows}, 30_000 instructions per point. The packing
    must hold at least [n] plus the largest window instructions
    ([FOM-I033]).

    Every point runs the {!Iw_sim.ipc_of_packed} recurrence kernel
    over the one packing. [?pool] measures the points as one task per
    window over that same immutable packing, so the points — and
    therefore the fit — are bit-identical to a sequential
    measurement. *)

val measure : ?n:int -> Fom_trace.Program.t -> t
(** {!measure_packed} with its defaults over the program, packed with
    the largest default window of margin by {!Fom_trace.Packed.at_least}
    (the calling domain's last packing of the program is reused when it
    is long enough). *)

val alpha : t -> float
val beta : t -> float
