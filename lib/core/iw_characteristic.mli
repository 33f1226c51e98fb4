(** The IW characteristic: average issue rate as a function of window
    occupancy (paper Section 3).

    The unit-latency, unlimited-width characteristic follows a power
    law [I = alpha * W^beta] (Riseman/Foster, Michaud et al., paper
    Figures 4–5). Two corrections produce a specific machine's
    characteristic:

    - Little's law for non-unit latencies: if the mean instruction
      latency is [L], the issue rate at a given occupancy divides by
      [L] ([I_L = I_1 / L]);
    - saturation at the maximum issue width (paper Figure 6): the
      curve follows the unlimited-width power law until it reaches the
      width, then stays there (Jouppi's approximation). *)

type t = {
  alpha : float;  (** power-law coefficient (unit latency) *)
  beta : float;  (** power-law exponent *)
  avg_latency : float;  (** mean instruction latency [L] (>= 1) *)
  issue_width : float;  (** saturation limit; [infinity] = unlimited *)
}

val make :
  alpha:float -> beta:float -> ?avg_latency:float -> ?issue_width:float ->
  unit -> t
(** Defaults: unit latency, unlimited width. Requires positive
    [alpha], [beta] in (0, 1], [avg_latency >= 1]. *)

val square_law : t
(** The paper's illustrative average characteristic: alpha 1, beta 0.5
    (used for Figure 8 and Section 6). *)

val issue_rate : t -> float -> float
(** [issue_rate t w]: mean instructions issued per cycle with [w]
    instructions in the window — [min (issue_width, alpha * w^beta /
    avg_latency, w)] (never more than the occupancy). *)

val unclipped_rate : t -> float -> float
(** The power law with latency correction but no width clipping. *)

val occupancy_for_rate : t -> float -> float
(** Inverse of {!unclipped_rate}: the occupancy at which the unlimited
    curve reaches the given rate. *)

val steady_state_ipc : t -> window:int -> float
(** Sustained issue rate with the window kept full: [issue_rate t
    window]. This is the background performance level of the paper's
    Figure 1. *)

val steady_state_occupancy : t -> window:int -> float
(** Window occupancy sustained in steady state: the full window if the
    curve saturates the width beyond it, otherwise the occupancy where
    the curve meets the width. *)
