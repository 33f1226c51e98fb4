(** Least-squares line and power-law fitting.

    The paper fits issue-window characteristics to [I = alpha * W^beta]
    by fitting a line on a log2-log2 scale (Section 3, Table 1,
    Figure 5). *)

type line = { slope : float; intercept : float; r2 : float }
(** A fitted line [y = slope * x + intercept] with its coefficient of
    determination. *)

val line : (float * float) array -> line
(** Ordinary least squares on (x, y) points. Requires at least two points
    with distinct x. *)

type power_law = { alpha : float; beta : float; r2 : float }
(** A fitted power law [y = alpha * x^beta]. *)

val power_law : (float * float) array -> power_law
(** [power_law points] fits on log2/log2 axes, exactly as the paper does.
    All coordinates must be positive. *)

val eval_power_law : power_law -> float -> float
(** Evaluate a fitted power law. *)
