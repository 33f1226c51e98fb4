(** Functional (timing-free) trace profiling.

    Every rate and distribution the model needs, from the paper's
    "simple trace-driven simulations of caches and branch predictors"
    (Section 5, step 5), in two stages. {!replay} is one pass over the
    trace that drives the caches, the predictor and the dTLB
    functionally and keeps where the miss-events fell; {!group} turns
    one replay into the profile of one machine: its mean latency,
    misprediction bursts and miss groups. No cycle-level machinery is
    involved. *)

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

type replay
(** One functional replay of a packed trace: the class counts, the
    miss counts and the ascending indices of the mispredicted branches,
    the long-miss loads and the dTLB-miss loads. It depends on the
    trace, the cache hierarchy, the predictor, the dTLB and [n] alone,
    so one replay serves every machine that shares them, whatever its
    issue window, ROB or latencies. *)

val replay :
  ?cache:Fom_cache.Hierarchy.config ->
  ?predictor:Fom_branch.Predictor.spec ->
  ?dtlb:Fom_cache.Tlb.spec ->
  Fom_trace.Packed.t -> n:int -> replay
(** Drive the caches, the predictor and the dTLB over the first [n]
    instructions of a packed trace, read straight from its columns
    ([FOM-I030] unless [0 < n <= Packed.length]), in one pass under
    the [analysis.profile] span. Defaults: the paper's baseline cache
    hierarchy and 8K gShare, no dTLB. *)

val group :
  ?grouping:grouping ->
  burst_window:int -> group_window:int ->
  Fom_trace.Packed.t -> replay -> t
(** The profile of one machine from a replay of this packing
    ([FOM-I030] if the packing is shorter than the replay): the mean
    latency under {!Fom_isa.Latency.default}, the misprediction bursts within [burst_window] (the issue-window
    size), and the long-miss and dTLB-miss groups within
    [group_window] (the ROB size) under [grouping] (default
    {!Dependence_aware}). Dependences are read only within
    [group_window] after each group leader, since no other instruction
    can split a group, so this costs a fraction of the replay. *)

val run : Fom_trace.Program.t -> n:int -> t
(** {!replay} and {!group} with every default over the first [n]
    instructions of the program, for the baseline machine's issue
    window and ROB ({!Fom_model.Params.baseline}). The program is
    packed by {!Fom_trace.Packed.at_least}: the calling domain's last
    packing of it is reused when it holds [n] rows. *)

val class_fraction : t -> Fom_isa.Opclass.t -> float

val per_instr : t -> int -> float
(** Normalize a count by the profiled instruction count. *)
