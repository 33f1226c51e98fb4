(** Program statistics consumed by the model.

    These are exactly the trace-derived quantities the paper's
    Section 5 evaluation feeds the model: the unit-latency IW power
    law, the mean instruction latency, per-instruction miss-event
    rates, the misprediction burst-size distribution, and the
    long-miss group-size distribution [f_LDM] for the machine's ROB
    size. {!Fom_analysis} produces them from a trace without any
    detailed (cycle-level) simulation. *)

type t = {
  name : string;  (** workload label *)
  instructions : int;  (** trace length the statistics came from *)
  alpha : float;  (** unit-latency IW power-law coefficient *)
  beta : float;  (** unit-latency IW power-law exponent *)
  fit_r2 : float;  (** quality of the log-log fit *)
  avg_latency : float;
      (** mean instruction latency, short data misses folded in
          (paper Table 1, third column) *)
  mispredictions_per_instr : float;
  mispred_bursts : Fom_util.Distribution.t;
      (** sizes of misprediction bursts (mispredictions closer than a
          window-refill of instructions share one drain/ramp pair) *)
  l1i_misses_per_instr : float;  (** I-fetch misses served by the L2 *)
  l2i_misses_per_instr : float;  (** I-fetch misses served by memory *)
  short_misses_per_instr : float;  (** load L1D misses served by the L2 *)
  long_misses_per_instr : float;  (** load misses served by memory *)
  long_miss_groups : Fom_util.Distribution.t;
      (** [f_LDM]: sizes of long-miss groups, where consecutive long
          misses within [rob_size] instructions overlap (paper eq. 8) *)
  dtlb_misses_per_instr : float;
      (** load TLB misses (0 when the machine has no modeled TLB) *)
  dtlb_groups : Fom_util.Distribution.t;
      (** TLB-miss group sizes, same overlap rule as long misses *)
}

val check : t -> Fom_check.Diagnostic.t list
(** Collect every [FOM-Ixxx] violation: rate ranges, the power-law
    shape ([alpha > 0], [beta], [fit_r2] in (0, 1]]), miss-rate
    orderings (warnings), and consistency between each event rate and
    its group-size distribution. *)

val validate : t -> unit
(** Raise {!Fom_check.Checker.Invalid} with everything {!check}
    reports at error severity (warnings and hints never raise). *)

val mispred_burst_mean : t -> float
(** Mean misprediction burst size [n] for eq. 3; 1.0 when no bursts
    were observed. *)

val long_group_factor : t -> float
(** The eq. 8 overlap factor [sum_i f_LDM(i) / i]; 1.0 (isolated
    misses) when no long misses were observed. *)

val dtlb_group_factor : t -> float
(** Overlap factor for TLB misses, same convention. *)
