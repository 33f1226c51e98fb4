(* The benchmark's only door into lib/. Every library call the
   workloads make goes through a function here, so renaming or
   collapsing a library entry point (Characterize's variants, the
   thunk feed, Profile's input) touches this file and nothing else. *)

module Stats = Fom_uarch.Stats
module Machine = Fom_uarch.Config
module Params = Fom_model.Params
module Cpi = Fom_model.Cpi
module Inputs = Fom_model.Inputs
module Iw_curve = Fom_analysis.Iw_curve
module Pool = Fom_exec.Pool
module Memo = Fom_exec.Memo
module Json = Fom_util.Json

(* ---- trace: presets, programs, packing ---- *)

type program = Fom_trace.Program.t
type packed = Fom_trace.Packed.t
type source = Fom_trace.Source.t

let preset_names = Fom_workloads.Spec2000.names

let preset = Fom_workloads.Spec2000.find
let generate = Fom_trace.Program.generate
let pack program ~n = Fom_trace.Packed.of_source (Fom_trace.Source.of_program program) ~n
let packed_length = Fom_trace.Packed.length

let phase_source ~phase_len configs =
  Fom_trace.Phases.source
    (List.map (fun config -> { Fom_trace.Phases.config; instructions = phase_len }) configs)

(* ---- uarch: machines and the detailed simulator ---- *)

let real = Machine.baseline
let ideal = Machine.ideal Machine.baseline
let bp_only = Machine.with_predictor Fom_branch.Predictor.default_spec ideal
let icache_only = Machine.with_cache Fom_cache.Hierarchy.ideal_except_l1i ideal
let dcache_only = Machine.with_cache Fom_cache.Hierarchy.ideal_except_data ideal
let width (m : Machine.t) = m.Machine.width
let tlb_spec = { Fom_cache.Tlb.entries = 64; page_bits = 13; walk_latency = 30 }
let with_tlb = Machine.with_dtlb tlb_spec

let fu_sets =
  [
    Fom_isa.Fu_set.unbounded;
    Fom_isa.Fu_set.make ~alu:1 ();
    Fom_isa.Fu_set.make ~alu:2 ~load:1 ();
    Fom_isa.Fu_set.make ~alu:1 ~load:1 ~store:1 ();
  ]

let with_fu_limits = Machine.with_fu_limits

let icache_with_buffer entries =
  Machine.with_fetch_buffer entries (Machine.with_cache Fom_cache.Hierarchy.ideal_except_l1i ideal)

let with_clusters = Machine.with_clusters
let sim_packed machine packed ~n = Fom_uarch.Simulate.run_packed machine packed ~n
let sim_program machine program ~n = Fom_uarch.Simulate.run machine program ~n
let sim_source machine source ~n = Fom_uarch.Simulate.run_source machine source ~n

(* ---- analysis and model ---- *)

type hierarchy = Fom_cache.Hierarchy.config

let fig14_caches = Fom_cache.Hierarchy.fig14

let characterize_packed ~pool ~iw_instructions ?cache ~params packed ~n =
  Fom_analysis.Characterize.curve_and_inputs_of_packed ~pool ~iw_instructions ?cache ~params
    packed ~n

let characterize_program ?dtlb ~iw_instructions ~params program ~n =
  Fom_analysis.Characterize.inputs ?dtlb ~iw_instructions ~params program ~n

let characterize_source ~iw_instructions ~params source ~n =
  Fom_analysis.Characterize.inputs_of_source ~iw_instructions ~params source ~n

(* Inputs as plain data, their distributions as sorted lists, so equal
   inputs marshal (and digest) to equal bytes. *)
let inputs_view (i : Inputs.t) =
  let d = Fom_util.Distribution.to_list in
  ( (i.Inputs.name, i.instructions, i.alpha, i.beta, i.fit_r2, i.avg_latency),
    (i.mispredictions_per_instr, d i.mispred_bursts, i.l1i_misses_per_instr, i.l2i_misses_per_instr),
    (i.short_misses_per_instr, i.long_misses_per_instr, d i.long_miss_groups),
    (i.dtlb_misses_per_instr, d i.dtlb_groups) )

let evaluate params inputs = Cpi.evaluate params inputs
let combine_phases = Fom_model.Phased.combine

(* ---- exec ---- *)

let create_pool ~jobs = Pool.create ~jobs ()
let memo pool = Memo.create ~pool ()

(* ---- obs ---- *)

let now_ns = Fom_obs.Clock.now_ns
let span_id = Fom_obs.Span.id
let with_span = Fom_obs.Span.with_
let start_tracing () = Fom_obs.Sink.enable ~span_capacity:(1 lsl 18) ()
let stop_tracing = Fom_obs.Sink.disable

let counter name =
  Option.value
    (List.assoc_opt name (Fom_obs.Metrics.snapshot ()).Fom_obs.Metrics.counters)
    ~default:0

(* Span events in the rollup's own vocabulary. *)
let span_events () =
  List.map
    (fun (e : Fom_obs.Span.event) ->
      {
        Rollup.domain = e.Fom_obs.Span.domain;
        name = e.Fom_obs.Span.name;
        phase =
          (match e.Fom_obs.Span.phase with
          | Fom_obs.Span.Begin -> Rollup.Begin
          | Fom_obs.Span.End -> Rollup.End);
        ts_ns = e.Fom_obs.Span.ts_ns;
      })
    (Fom_obs.Span.events ())
