(** Statistics collected by a detailed simulation run. *)

type t = {
  instructions : int;  (** instructions retired *)
  cycles : int;
  (* miss events *)
  branch_mispredictions : int;
  l1i_misses : int;  (** instruction fetches served by the L2 *)
  l2i_misses : int;  (** instruction fetches served by memory *)
  short_data_misses : int;  (** load L1D misses served by the L2 *)
  long_data_misses : int;  (** load L2 misses served by memory *)
  dtlb_misses : int;  (** load TLB misses (0 without a TLB) *)
  (* overlap accounting for the Figure 2 compensation *)
  mispredictions_under_long_miss : int;
      (** mispredicted branches fetched while a long data miss was
          outstanding *)
  imisses_under_long_miss : int;
      (** instruction-cache misses suffered while a long data miss was
          outstanding *)
  (* model-validation probes *)
  window_at_branch_issue : float;
      (** mean useful instructions left in the window when a
          mispredicted branch issues (paper: about 1.3) *)
  rob_ahead_of_long_miss : float;
      (** mean instructions ahead of a long-miss load in the ROB when
          it issues (paper: about 9) *)
  mean_window_occupancy : float;
  mean_rob_occupancy : float;
}

val ipc : t -> float
val cpi : t -> float

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable dump. *)
