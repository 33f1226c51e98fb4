module Inputs = Fom_model.Inputs
module Params = Fom_model.Params
module Packed = Fom_trace.Packed
module Memo = Fom_exec.Memo
module Hierarchy = Fom_cache.Hierarchy
module Predictor = Fom_branch.Predictor

let assemble ~name ~n curve (profile : Profile.t) =
  {
    Inputs.name;
    instructions = n;
    alpha = Float.max 0.01 (Iw_curve.alpha curve);
    (* A dependence-saturated trace fits a flat (or noise-negative)
       exponent; clamp into the model's valid (0, 1] range. *)
    beta = Float.min 1.0 (Float.max 0.01 (Iw_curve.beta curve));
    fit_r2 = curve.Iw_curve.fit.Fom_util.Fit.r2;
    avg_latency = Float.max 1.0 profile.Profile.avg_latency;
    mispredictions_per_instr = Profile.per_instr profile profile.Profile.mispredictions;
    mispred_bursts = profile.Profile.mispred_bursts;
    l1i_misses_per_instr = Profile.per_instr profile profile.Profile.l1i_misses;
    l2i_misses_per_instr = Profile.per_instr profile profile.Profile.l2i_misses;
    short_misses_per_instr = Profile.per_instr profile profile.Profile.short_misses;
    long_misses_per_instr = Profile.per_instr profile profile.Profile.long_misses;
    long_miss_groups = profile.Profile.long_miss_groups;
    dtlb_misses_per_instr = Profile.per_instr profile profile.Profile.dtlb_misses;
    dtlb_groups = profile.Profile.dtlb_groups;
  }

(* What every characterization of one packing shares, whatever its
   window, ROB, width or depth: the IW curve, keyed by its instruction
   count, and the functional replay, keyed by the cache hierarchy, the
   predictor, the dTLB and the instruction count. Memo cells compute
   each once, and a demander that finds one in flight helps the pool
   until it lands. *)
type shared = {
  curves : (int, Iw_curve.t) Memo.t;
  replays :
    (Hierarchy.config * Predictor.spec * Fom_cache.Tlb.spec option * int, Profile.replay) Memo.t;
}

type Packed.cached += Shared of Fom_exec.Pool.t option * shared

(* One [shared] per pool, on the packing's cache, so the results die
   with the packing: a waiter helps the pool its cell was made with,
   and a pool that has shut down runs nothing. *)
let rec shared pool (packed : Packed.t) =
  let cached = Atomic.get packed.Packed.cached in
  let mine = function Shared (p, s) when Option.equal ( == ) p pool -> Some s | _ -> None in
  match List.find_map mine cached with
  | Some s -> s
  | None ->
      let s = { curves = Memo.create ?pool (); replays = Memo.create ?pool () } in
      if Atomic.compare_and_set packed.Packed.cached cached (Shared (pool, s) :: cached) then s
      else shared pool packed

(* Every entry point, its defaults resolved, so that one memory system
   keys one replay however it was named. *)
let characterize ~pool ~iw_instructions ~cache ~predictor ~grouping ~dtlb ~(params : Params.t)
    packed ~n =
  Params.validate params;
  if Packed.length packed < n then
    Fom_check.Checker.(
      run_exn
        (fail ~code:"FOM-I033" ~path:"characterize.trace"
           (Printf.sprintf
              "packed trace of %d instructions is shorter than the %d-instruction profile"
              (Packed.length packed) n)));
  let shared = shared pool packed in
  let curve =
    Memo.get shared.curves iw_instructions (fun () ->
        Iw_curve.measure_packed ?pool ~n:iw_instructions packed)
  in
  let replay =
    Memo.get shared.replays (cache, predictor, dtlb, n) (fun () ->
        Profile.replay ~cache ~predictor ?dtlb packed ~n)
  in
  let profile =
    Profile.group ~grouping ~burst_window:params.Params.window_size
      ~group_window:params.Params.rob_size packed replay
  in
  (curve, profile, assemble ~name:(Packed.label packed) ~n curve profile)

let curve_and_inputs_of_packed ?pool ?(iw_instructions = 30_000) ?(cache = Hierarchy.baseline)
    ?(grouping = Profile.Dependence_aware) ?dtlb ~params packed ~n =
  characterize ~pool ~iw_instructions ~cache ~predictor:Predictor.default_spec ~grouping ~dtlb
    ~params packed ~n

(* The inputs of [n] instructions of a source. The machine is checked
   before any work: the model would reject it only after the whole
   characterization. One packing covers whichever pass reads furthest:
   the profile's [n] or the IW sweep's instructions plus its largest
   window of fetch-ahead. It comes from the domain's table of one
   packing per source: a longer one is reused with its cached curve
   and replays, a shorter program packing grows by the missing rows
   (a new packing with empty caches). Both passes then replay the same
   flat columns with no further decode of the underlying source. *)
let of_source ~iw_instructions ~cache ~predictor ~dtlb ~params source ~n =
  Params.validate params;
  let max_window = List.fold_left Int.max 1 Iw_curve.default_windows in
  let rows = Int.max n (Packed.padded iw_instructions ~margin:max_window) in
  let _, _, inputs =
    characterize ~pool:None ~iw_instructions ~cache ~predictor ~grouping:Profile.Dependence_aware
      ~dtlb ~params (Packed.at_least source ~n:rows) ~n
  in
  inputs

let inputs_of_source ?(iw_instructions = 30_000) ~params source ~n =
  of_source ~iw_instructions ~cache:Hierarchy.baseline ~predictor:Predictor.default_spec
    ~dtlb:None ~params source ~n

let inputs ?(iw_instructions = 30_000) ?(cache = Hierarchy.baseline)
    ?(predictor = Predictor.default_spec) ?dtlb ~params program ~n =
  of_source ~iw_instructions ~cache ~predictor ~dtlb ~params
    (Fom_trace.Source.of_program program)
    ~n
