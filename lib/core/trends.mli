(** Microarchitecture trend studies (paper Section 6).

    Both studies assume the paper's setting: an average square-law
    characteristic and branch mispredictions as the limiting
    miss-event, with one branch in five instructions and a 5%
    misprediction rate (100 instructions between mispredictions)
    unless overridden. The machine has a 48-entry window and, where
    the depth is not the study's variable, a five-stage front end. *)

val ipc_vs_depth :
  ?iw:Iw_characteristic.t -> ?interval:int ->
  widths:int list -> depths:int list -> unit -> (int * (int * float) list) list
(** Figure 17a: for each issue width, IPC as a function of front-end
    depth. Deeper pipes erode the advantage of wider issue. The
    default characteristic is the square law clipped at each width.
    Returns [(width, [(depth, ipc); ...]); ...]. *)

val bips_vs_depth :
  ?iw:Iw_characteristic.t -> ?interval:int ->
  widths:int list -> depths:int list -> unit -> (int * (int * float) list) list
(** Figure 17b: absolute performance in billions of instructions per
    second, with cycle time [8200 / depth + 90] ps (total logic depth
    and latch overhead from Sprangle & Carmean). The optimum
    depth shifts shorter as issue widens. *)

val optimal_depth : (int * float) list -> int
(** Depth with the highest performance in one {!bips_vs_depth} row. *)

val mispred_distance_for_fraction :
  ?iw:Iw_characteristic.t -> width:int -> fraction:float -> unit -> int
(** Figure 18: the smallest number of instructions between
    mispredictions such that the machine spends [fraction] of its
    cycles within 12.5% of the issue width. The paper's law: doubling
    the width requires quadrupling this distance. *)

val issue_trajectory :
  ?iw:Iw_characteristic.t -> ?interval:int -> width:int -> unit -> float array
(** Figure 19: per-cycle issue rate between two mispredictions
    (pipeline-fill dead cycles included). *)
