(** Least-squares line and power-law fitting.

    The paper fits issue-window characteristics to [I = alpha * W^beta]
    by fitting a line on a log2-log2 scale (Section 3, Table 1,
    Figure 5). *)

type power_law = { alpha : float; beta : float; r2 : float }
(** A fitted power law [y = alpha * x^beta]. *)

val power_law : (float * float) array -> power_law
(** [power_law points] fits on log2/log2 axes, exactly as the paper does,
    by ordinary least squares. Requires at least two points with distinct
    x, and all coordinates positive. [r2] is 1 when every y is equal:
    a flat curve is fitted exactly by [beta = 0]. *)

val eval_power_law : power_law -> float -> float
(** Evaluate a fitted power law. *)
