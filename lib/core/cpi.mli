(** CPI composition (paper equation 1).

    [CPI = CPI_steadystate + CPI_brmisp + CPI_icachemiss +
    CPI_dcachemiss] — the miss-event penalties are independent to
    first order (paper Figure 2), so each component is a rate times a
    per-event penalty, and they add. *)

type branch_mode =
  | Measured_burst
      (** per-workload characteristic and measured burst sizes *)
  | Paper_constant
      (** the paper's Section 5 midpoint constant (7.5 cycles on the
          five-stage baseline) *)

type dcache_mode =
  | Rob_fill_corrected
      (** subtract the analytic {!Penalties.rob_fill_estimate} from
          the isolated long-miss penalty — an extension for workloads
          whose miss loads issue young *)
  | Paper_delay  (** the paper's [penalty = long_delay] approximation *)

type breakdown = {
  steady : float;  (** 1 / steady-state IPC *)
  branch : float;
  l1i : float;  (** I-fetches filled from the L2 *)
  l2i : float;  (** I-fetches filled from memory *)
  dcache : float;  (** long data misses *)
  dtlb : float;  (** TLB walks (0 without a TLB) — Section 7 extension *)
}

val total : breakdown -> float

val evaluate :
  ?branch_mode:branch_mode -> ?dcache_mode:dcache_mode -> Params.t -> Inputs.t -> breakdown
(** Run the full first-order model. Defaults: [Measured_burst] and
    [Rob_fill_corrected]. *)

val characteristic : Params.t -> Inputs.t -> Iw_characteristic.t
(** The machine-specific IW characteristic the evaluation uses:
    the workload's fitted power law, Little's-law corrected by its
    mean latency, clipped at the machine width. *)

val pp : Format.formatter -> breakdown -> unit
