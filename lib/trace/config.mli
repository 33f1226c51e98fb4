(** Synthetic workload generation parameters.

    A [Config.t] fully determines a synthetic program and its dynamic
    trace (given the seed). The fields are exactly the first-order
    program statistics the paper's model consumes: instruction mix,
    register dependence-distance profile (which sets the IW power-law
    alpha/beta), branch-behaviour mixture (which sets the gShare
    misprediction rate), and memory working-set profile (which sets the
    cache miss rates and long-miss clustering). The 12 SPECint2000-like
    presets live in {!Fom_workloads}. *)

type mix = {
  load : float;
  store : float;
  branch : float;  (** conditional branches *)
  jump : float;  (** unconditional control (calls, returns) *)
  mul : float;
  div : float;
}
(** Dynamic instruction-class fractions; the remainder up to 1.0 is
    single-cycle ALU work. Fractions must be non-negative and sum to
    at most 1. [branch + jump] must be positive: it sets the mean basic
    block length [1 / (branch + jump)]. *)

type deps = {
  short_p : float;  (** probability a source dependence is short *)
  short_mean : float;  (** mean of the short geometric distance (>= 1) *)
  long_max : int;  (** long distances are uniform on [1, long_max] *)
  nsrc_weights : float array;  (** weights for 0, 1, 2 sources on ALU ops *)
}
(** Dependence distances are counted in value-producing instructions
    going backwards. Short chained dependences lower the IW beta; a
    long tail and many zero-source instructions raise it. *)

type control = {
  regions : int;  (** function-like regions (>= 1) *)
  blocks_per_region : int;  (** basic blocks per region (>= 2) *)
  chaotic_frac : float;  (** fraction of branches that are chaotic *)
  chaotic_low : float;  (** chaotic taken-probability lower bound *)
  chaotic_high : float;  (** chaotic taken-probability upper bound *)
  pattern_frac : float;  (** fraction with periodic patterns *)
  pattern_max_period : int;  (** pattern length upper bound (>= 2) *)
  loop_trip_mean : float;  (** mean loop trip count (>= 2) *)
  bias : float;  (** taken-probability magnitude of biased branches *)
}
(** The remaining branches ([1 - chaotic_frac - pattern_frac]) are
    biased: taken with probability [bias] or [1 - bias] (even split).
    Region count times blocks per region times mean block length sets
    the static code footprint, hence the I-cache behaviour. *)

type memory = {
  local_frac : float;  (** loads hitting a small hot region *)
  random_frac : float;  (** loads over a mid-size region (short misses) *)
  stream_frac : float;  (** loads streaming a large region (long misses) *)
  chase_frac : float;  (** pointer-chasing loads over a large region *)
  local_region : int;  (** bytes; should fit in L1D *)
  random_region : int;  (** bytes; should fit in L2 but not L1D *)
  stream_region : int;  (** bytes per streaming load; larger than L2 *)
  chase_region : int;  (** bytes; larger than L2 for long-miss chasing *)
  stream_stride : int;  (** bytes between consecutive stream accesses *)
  chase_chains : int;
      (** independent pointer chains: 0 gives one chain per static
          chase load (parallel lists, memory-level parallelism); 1
          serializes every chase load on one list (the worst case for
          the model's overlap assumption) *)
}
(** The four fractions must sum to 1. Stores always use the local
    region: store misses never stall the modeled machine (retirement
    is blocked only by loads), matching the paper. *)

type t = {
  name : string;
  seed : int;
  mix : mix;
  deps : deps;
  control : control;
  memory : memory;
  latencies : Fom_isa.Latency.t;
}

val check : t -> Fom_check.Diagnostic.t list
(** Collect every [FOM-Txxx] violation of the documented constraints,
    with context paths rooted at [workload.<name>]. *)

val validate : t -> unit
(** Raise {!Fom_check.Checker.Invalid} with everything {!check}
    reports at error severity; called by {!Program.generate}. *)

val mean_block_len : t -> float
(** Mean instructions per basic block, terminator included. *)

val class_weight : t -> Fom_isa.Opclass.t -> float
(** Dynamic fraction of the given class under this mix. *)
