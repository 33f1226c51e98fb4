(** Analytic transients on the IW characteristic.

    The miss-event penalty models (paper Section 4) are built from two
    transients iterated numerically on the characteristic, exactly as
    the paper's Figure 8 does for the square-law curve:

    - {!drain}: the window empties from its steady-state occupancy
      with fetch stopped (a mispredicted branch or an exhausted front
      end); issue decays along the curve. Its penalty is the excess
      over issuing the same instructions at the steady rate.
    - {!ramp_up}: the window refills from empty at the dispatch width
      while issue climbs back along the curve (the "leaky bucket").

    For branch mispredictions drain and ramp-up penalties add; for
    I-cache and long D-cache misses they offset (the paper's key
    observations 2 and 3). *)

type result = {
  cycles : float;  (** transient duration *)
  instructions : float;  (** instructions issued during the transient *)
  penalty : float;  (** [cycles - instructions / steady_ipc] *)
}

val drain : Iw_characteristic.t -> window:int -> result
(** Empty the window from its steady-state occupancy until at most one
    instruction remains (the paper assumes the mispredicted branch is
    then the oldest and issues). *)

val ramp_up : Iw_characteristic.t -> window:int -> result
(** Refill from empty at the machine's dispatch width (the
    characteristic's [issue_width]; a finite width is required) until
    issue reaches within 10% of the steady-state rate. The asymptotic
    tail is cut off there, matching the paper's graphical reading of
    Figure 8. *)

type interval = {
  ipc : float;  (** useful instructions per cycle over the interval, fill included *)
  issue_per_cycle : float array;  (** per-cycle issue rates, fill included *)
}

val interval :
  Iw_characteristic.t -> window:int -> pipeline_depth:int -> instructions:int ->
  interval
(** The paper's Section 6 inter-misprediction interval: after a
    misprediction resolves, the front end refills ([pipeline_depth]
    dead cycles), then [instructions] useful instructions are
    dispatched at the machine width and issued along the
    characteristic, including the final natural drain once dispatch
    runs out. Requires a finite issue width. *)
