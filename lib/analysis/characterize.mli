(** Assemble the model's inputs from trace analysis alone.

    This is the paper's full input pipeline (Section 5, steps 1 and
    5): the idealized IW curve gives alpha/beta; the functional
    profile gives the mean latency, the miss-event rates, the
    misprediction bursts, and the long-miss group distribution for the
    machine's ROB size. No detailed simulation is involved. The
    curve depends on the trace alone, and the cache and predictor
    replay on the trace and the memory system alone, so
    characterizations of one packing share them
    ({!curve_and_inputs_of_packed}). *)

val inputs :
  ?iw_instructions:int ->
  ?cache:Fom_cache.Hierarchy.config ->
  ?predictor:Fom_branch.Predictor.spec ->
  ?dtlb:Fom_cache.Tlb.spec ->
  params:Fom_model.Params.t ->
  Fom_trace.Program.t -> n:int -> Fom_model.Inputs.t
(** [inputs ~params program ~n] profiles [n] instructions and measures
    the IW curve ({!Iw_curve.default_windows}, [iw_instructions] per
    point, default 30k). [params] supplies the burst window (issue
    window size) and the group window (ROB size); it is validated
    ({!Fom_model.Params.validate}) before any packing or profiling.
    Cache and predictor default to the paper's baseline, latencies are
    {!Fom_isa.Latency.default}, and there is no dTLB unless [dtlb] is
    given. The program is packed as by {!inputs_of_source}. *)

val inputs_of_source :
  ?iw_instructions:int ->
  params:Fom_model.Params.t ->
  Fom_trace.Source.t -> n:int -> Fom_model.Inputs.t
(** {!inputs} on the baseline memory system over any replayable
    source — the bring-your-own-trace path: characterize an imported
    trace and model it without any synthetic generation. One packing,
    of at least the profile's [n] and the IW sweep's instructions plus
    its largest window, serves both passes ([FOM-T130] if that length
    exceeds [max_int]). It comes from {!Fom_trace.Packed.at_least}, so
    characterizations of one program or schedule at several machine
    points on a domain reuse one packing, and with it the IW curve and
    replay shared per packing ({!curve_and_inputs_of_packed}). Every
    pass reads only the rows it needs, so a longer packing gives the
    same inputs. *)

val curve_and_inputs_of_packed :
  ?pool:Fom_exec.Pool.t ->
  ?iw_instructions:int ->
  ?cache:Fom_cache.Hierarchy.config ->
  ?grouping:Profile.grouping ->
  ?dtlb:Fom_cache.Tlb.spec ->
  params:Fom_model.Params.t ->
  Fom_trace.Packed.t -> n:int -> Iw_curve.t * Profile.t * Fom_model.Inputs.t
(** Like {!inputs} with the baseline predictor, but over an
    already-packed trace, and also returning the raw curve and profile
    — for harnesses that print them (Table 1, Figures 4–5) or share one
    packing between characterization and detailed simulation. The
    packing must cover the profile's [n] instructions ([FOM-I033]) and
    the IW sweep's needs (see {!Iw_curve.measure_packed}). [grouping]
    defaults to {!Profile.Dependence_aware}. [?pool] parallelizes the
    IW-curve points (see {!Iw_curve.measure_packed}); results are
    bit-identical to the sequential path.

    Characterizations of one packing share their work: the IW curve,
    keyed by [iw_instructions], and the functional replay
    ({!Profile.replay}), keyed by the cache hierarchy, the predictor,
    the dTLB and [n]. Each key holds resolved values, so an omitted
    argument and its default spelled out key the same result. Only the grouping ({!Profile.group})
    and the assembly run per call, so a sweep over windows, ROBs,
    widths and depths pays for one IW sweep and one replay per memory
    system. Concurrent calls compute a shared result once, and a
    caller waiting on one helps [pool]; results under another pool are
    computed again. The shared results are kept in the packing's
    [cached] field, so they live exactly as long as the packing. *)
