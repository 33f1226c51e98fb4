(** Machine configuration for the detailed simulator.

    The modeled processor is the paper's first-order superscalar
    machine (Section 1): a single homogeneous issue window with
    oldest-first out-of-order issue, a separate reorder buffer, equal
    fetch/pipeline/dispatch/issue/retire width [i], a parameterized
    front-end depth, unbounded functional units of each type, and
    caches and a branch predictor but no prefetching. *)

type t = {
  width : int;  (** [i]: fetch = dispatch = issue = retire width *)
  pipeline_depth : int;  (** front-end stages between fetch and dispatch *)
  window_size : int;  (** issue window entries *)
  rob_size : int;  (** reorder buffer entries *)
  unbounded_issue : bool;  (** ignore [width] at issue (IW measurements) *)
  latencies : Fom_isa.Latency.t;
  cache : Fom_cache.Hierarchy.config;
  predictor : Fom_branch.Predictor.spec;
  (* Section 7 extensions — all disabled on the paper's baseline. *)
  fu_limits : Fom_isa.Fu_set.t;  (** per-class functional-unit counts *)
  dtlb : Fom_cache.Tlb.spec option;  (** data TLB; [None] = perfect *)
  fetch_buffer : int;  (** extra fetch-buffer entries past the pipe *)
  clusters : int;
      (** issue-window partitions: dispatch steers round-robin, each
          cluster issues [width/clusters] per cycle from its
          [window_size/clusters] entries, and consuming a value
          produced in another cluster costs one bypass cycle. 1 =
          the paper's unified window. Must divide both the width and
          the window size. *)
}

val baseline : t
(** The paper's baseline: width 4, five front-end stages, a 48-entry
    window, a 128-entry ROB, 4K/4-way L1s under a 512K L2 and an
    8K-entry gShare. *)

val check : t -> Fom_check.Diagnostic.t list
(** All diagnostics for the configuration: structural sanity
    ([FOM-M001]..[FOM-M008] — positive sizes, window <= ROB, clusters
    dividing width and window; [FOM-I032] — the in-flight span must
    fit the largest supported completion ring, see {!comp_ring_size})
    plus the component checks (latencies, functional units, predictor,
    cache hierarchy, optional TLB). Empty list = valid. *)

val max_comp_ring_bits : int
(** log2 of the largest completion ring: configurations whose in-flight
    span needs more are rejected by {!check} with [FOM-I032] instead
    of silently aliasing completion lookups. *)

val inflight_span : t -> int
(** Worst-case spread of in-flight dynamic indices, [rob_size + width *
    pipeline_depth + fetch_buffer + width]: ROB residents, the
    front-end pipe, and up to [width - 1] instructions that the last
    cycle of a run retires past its target. A run to [n] retirements
    from a fresh machine fetches fewer than [n + inflight_span]
    instructions, which is how long a packing it replays must be. *)

val comp_ring_size : t -> int
(** Size of the completion-tracking ring {!Machine} allocates for
    this configuration — the smallest power of two strictly above
    {!inflight_span}, so in-flight instructions always map to distinct
    slots. *)

val validate : t -> unit
(** @raise Fom_check.Checker.Invalid if {!check} reports any error. *)

val ideal : ?width:int -> ?window_size:int -> t -> t
(** Idealize a configuration: perfect caches and branch prediction,
    keeping sizes from the base (with optional overrides). *)

val with_cache : Fom_cache.Hierarchy.config -> t -> t
val with_predictor : Fom_branch.Predictor.spec -> t -> t
val with_depth : int -> t -> t
val with_fu_limits : Fom_isa.Fu_set.t -> t -> t
val with_dtlb : Fom_cache.Tlb.spec -> t -> t
val with_fetch_buffer : int -> t -> t
val with_clusters : int -> t -> t
