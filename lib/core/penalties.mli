(** Per-event penalty models (paper Section 4).

    All penalties are in cycles per miss-event and are built from the
    {!Transient} engine on a machine-specific {!Iw_characteristic}. *)

type transients = {
  drain : float;  (** {!Transient.drain}'s penalty *)
  ramp : float;  (** {!Transient.ramp_up}'s penalty *)
}

val transients : Iw_characteristic.t -> Params.t -> transients
(** Both transient penalties at the machine's window size, which the
    branch and I-cache penalties share. *)

val branch_misprediction : transients -> Params.t -> burst:float -> float
(** Equations 2–3: [pipeline_depth + (window_drain + ramp_up) / n],
    where [n] is the mean misprediction burst size ([n = 1] gives the
    isolated penalty, the upper bound). The penalty exceeds the
    front-end depth — the paper's first headline observation. *)

val branch_misprediction_paper : Params.t -> float
(** The paper's Section 5 simplification: the midpoint between the
    isolated penalty and the pure pipeline depth, computed on the
    square-law characteristic — 7.5 cycles for the five-stage
    baseline. *)

val icache_miss : transients -> Params.t -> delay:int -> float
(** Equations 4–5 with [n = 1]: [delay + ramp_up - window_drain]. The
    drain and ramp-up offset, so the penalty is approximately the fill
    [delay] and independent of the front-end depth — the paper's
    second headline observation. A non-zero [params.fetch_buffer]
    hides [fetch_buffer / width] cycles of the delay (Section 7,
    extension 2). Clamped at zero. *)

val dcache_long_miss : ?rob_fill:float -> Params.t -> group_factor:float -> float
(** Equations 6–8: the isolated penalty is the memory delay minus
    [rob_fill] (default 0, the paper's approximation — valid when the
    missed load is old at issue), scaled by the overlap factor
    [sum_i f_LDM(i)/i] — misses within a ROB-size of instructions
    share one penalty. *)

val rob_fill_estimate : Iw_characteristic.t -> Params.t -> float
(** First-order [rob_fill]: when a missed load issues promptly, the
    ROB still holds only its steady-state occupancy (window backlog
    plus in-flight instructions by Little's law) and fills behind the
    load at the dispatch width. *)
