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

type record = {
  fetch : int array;  (** cycle it entered the front-end pipe *)
  dispatch : int array;  (** cycle it entered the window and ROB *)
  issue : int array;
  complete : int array;  (** set at issue; may lie past the end of the run *)
  retire : int array;
  cluster : int array;  (** steered to at dispatch *)
  mispredicted : bool array;  (** a branch the predictor got wrong *)
  icache_stall : int array;
      (** cycles from its I-cache probe until fetch may resume: at least
          1 on a miss, 0 on a hit or with no probe *)
}
(** A {!Simulate.run_recorded} pipeline record: when each instruction
    of one run reached each stage, by dynamic index over the whole
    packing; -1 for a stage not reached. The predictor's and the
    I-cache's verdicts and the loads' [complete] cycles are the inputs
    the cycle rules cannot derive; [test/pipeline_check.ml] re-derives
    every other column from them. *)

val ipc : t -> float
val cpi : t -> float

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable dump. *)
