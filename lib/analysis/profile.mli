(** Functional (timing-free) trace profiling.

    One pass over the trace drives the caches and the branch predictor
    functionally and collects every rate and distribution the model
    needs — the paper's "simple trace-driven simulations of caches and
    branch predictors" (Section 5, step 5). No cycle-level machinery
    is involved. *)

type grouping =
  | Dependence_aware
      (** a long miss joins the open group only if it is within the
          group window of the group *leader* (only then can it enter
          the ROB while the leader's miss is outstanding) and does not
          transitively depend on a group member (a dependent miss
          serializes). Extension of the paper's analysis — its stated
          future-work item on overlap modeling. *)
  | Paper_naive
      (** the paper's Section 4.3 reading: consecutive misses within
          [rob_size] instructions of each other chain into one group,
          dependences ignored. Kept for the ablation bench. *)

type t = {
  instructions : int;
  class_counts : (Fom_isa.Opclass.t * int) list;
  avg_latency : float;
      (** mean instruction latency with short-miss service folded in
          (long misses excluded — they are modeled separately) *)
  branches : int;  (** conditional branches *)
  mispredictions : int;
  mispred_bursts : Fom_util.Distribution.t;
      (** burst = consecutive mispredictions within [burst_window]
          instructions of each other *)
  l1i_misses : int;  (** instruction fetches served by the L2 *)
  l2i_misses : int;  (** instruction fetches served by memory *)
  short_misses : int;  (** load L1D misses served by the L2 *)
  long_misses : int;  (** load misses served by memory *)
  long_miss_groups : Fom_util.Distribution.t;
      (** group = consecutive long misses within [group_window]
          instructions (the ROB size) of each other: the paper's
          [f_LDM] *)
  dtlb_misses : int;  (** load TLB misses (0 without a TLB) *)
  dtlb_groups : Fom_util.Distribution.t;
      (** TLB-miss group sizes (leader-anchored, ROB window) *)
}

val run_packed :
  ?cache:Fom_cache.Hierarchy.config ->
  ?predictor:Fom_branch.Predictor.spec ->
  ?latencies:Fom_isa.Latency.t ->
  ?burst_window:int ->
  ?group_window:int ->
  ?grouping:grouping ->
  ?dtlb:Fom_cache.Tlb.spec ->
  Fom_trace.Packed.t -> n:int -> t
(** Profile the first [n] instructions of a packed trace, read
    straight from its columns ([FOM-I030] unless
    [0 < n <= Packed.length]). Defaults: the paper's baseline cache
    hierarchy and 8K gShare, default latencies, burst window 48 (the
    issue-window size), group window 128 (the ROB size), and
    {!Dependence_aware} grouping. *)

val run : Fom_trace.Program.t -> n:int -> t
(** {!run_packed} with every default over the first [n] instructions
    of the program, packed. *)

val class_fraction : t -> Fom_isa.Opclass.t -> float

val per_instr : t -> int -> float
(** Normalize a count by the profiled instruction count. *)
