(* Tests for the workload presets: the SPECint2000-like calibration
   targets and the analytically predictable micro-workloads. *)

module Config = Fom_trace.Config
module Spec2000 = Fom_workloads.Spec2000
module Micro = Fom_workloads.Micro
module Iw_sim = Fom_analysis.Iw_sim
module Iw_curve = Fom_analysis.Iw_curve
module Profile = Fom_analysis.Profile

let program config = Fom_trace.Program.generate config
let micro name = List.find (fun c -> c.Config.name = name) Micro.all

let per_ki profile count =
  1000.0 *. float_of_int count /. float_of_int profile.Profile.instructions

(* --- SPECint2000-like presets: qualitative calibration targets --- *)

let characteristics =
  lazy
    (List.map
       (fun config ->
         let p = program config in
         let curve = Iw_curve.measure ~n:15000 p in
         let profile = Profile.run p ~n:100_000 in
         (config.Config.name, curve, profile))
       Spec2000.all)

let find name =
  let n, c, p = List.find (fun (n, _, _) -> n = name) (Lazy.force characteristics) in
  ignore n;
  (c, p)

let beta name = Iw_curve.beta (fst (find name))

let test_all_presets_validate () =
  List.iter Config.validate Spec2000.all;
  List.iter Config.validate Micro.all

let test_beta_extremes () =
  (* Paper Table 1: vortex is the high-ILP extreme, vpr the low-ILP
     one; every other benchmark lies between them. *)
  let vortex = beta "vortex" and vpr = beta "vpr" in
  Alcotest.(check bool) "vpr lowest" true
    (List.for_all (fun (n, c, _) -> n = "vpr" || Iw_curve.beta c > vpr)
       (Lazy.force characteristics));
  Alcotest.(check bool) "vortex highest" true
    (List.for_all (fun (n, c, _) -> n = "vortex" || Iw_curve.beta c < vortex)
       (Lazy.force characteristics))

let test_vpr_high_latency () =
  (* Paper: vpr has the highest mean latency (2.2 on SPEC). *)
  let _, profile = find "vpr" in
  Alcotest.(check bool) "above 1.8" true (profile.Profile.avg_latency > 1.8);
  List.iter
    (fun (n, _, p) ->
      if n <> "vpr" then
        Alcotest.(check bool)
          (n ^ " below vpr")
          true
          (p.Profile.avg_latency < profile.Profile.avg_latency))
    (Lazy.force characteristics)

let test_mcf_memory_bound () =
  (* Paper Figure 16: long D-misses dominate mcf. *)
  let _, mcf = find "mcf" in
  List.iter
    (fun (n, _, p) ->
      if n <> "mcf" then
        Alcotest.(check bool)
          (n ^ " fewer long misses than mcf")
          true
          (per_ki p p.Profile.long_misses < per_ki mcf mcf.Profile.long_misses))
    (Lazy.force characteristics);
  Alcotest.(check bool) "mcf long misses substantial" true
    (per_ki mcf mcf.Profile.long_misses > 20.0)

let test_vortex_predicted_better_than_gcc () =
  (* Directional SPEC character: the OO-database workload predicts
     better than the branchy compiler. (The synthetic vortex keeps a
     misprediction floor from gShare history churn across its large
     code footprint, so the claim is kept directional rather than
     absolute.) *)
  let _, vortex = find "vortex" in
  let _, gcc = find "gcc" in
  let rate p = per_ki p p.Profile.mispredictions in
  Alcotest.(check bool) "vortex below gcc" true (rate vortex < rate gcc)

let test_icache_benchmarks () =
  (* Paper Figure 11 shows I-cache misses for crafty, eon, gap,
     parser, perlbmk, vortex (and twolf); gzip/bzip2/mcf/vpr are
     negligible. *)
  List.iter
    (fun name ->
      let _, p = find name in
      Alcotest.(check bool) (name ^ " has I-misses") true (per_ki p p.Profile.l1i_misses > 0.5))
    [ "crafty"; "eon"; "gap"; "parser"; "perlbmk"; "vortex" ];
  List.iter
    (fun name ->
      let _, p = find name in
      Alcotest.(check bool)
        (name ^ " negligible I-misses")
        true
        (per_ki p p.Profile.l1i_misses < 0.5))
    [ "gzip"; "bzip2"; "mcf"; "vpr" ]

let test_mispredict_rates_realistic () =
  (* All presets within the paper-era 1..20 per-kilo-instruction
     band. *)
  List.iter
    (fun (n, _, p) ->
      let rate = per_ki p p.Profile.mispredictions in
      Alcotest.(check bool)
        (Printf.sprintf "%s rate %.1f in band" n rate)
        true
        (rate > 1.0 && rate < 20.0))
    (Lazy.force characteristics)

(* --- micro-workloads --- *)

let test_serial_chain_ipc_one () =
  (* The producer chain issues one per cycle; control instructions
     (10% of the mix) produce no values and ride alongside, so the
     ceiling is 1 / (1 - control fraction) ~ 1.11. *)
  let ipc = Iw_sim.ipc (program (micro "serial-chain")) ~window:64 ~n:10000 in
  Alcotest.(check bool) (Printf.sprintf "serial ipc %.2f in [1.0, 1.12]" ipc) true
    (ipc >= 0.99 && ipc <= 1.12)

let test_independent_scales_with_window () =
  (* Without dependences the window-limited issue rate is essentially
     the window itself (instant refill, unit latency). *)
  let p = program (micro "independent") in
  List.iter
    (fun window ->
      let ipc = Iw_sim.ipc p ~window ~n:20000 in
      Alcotest.(check bool)
        (Printf.sprintf "window %d: ipc %.1f near window" window ipc)
        true
        (ipc > 0.85 *. float_of_int window))
    [ 4; 16; 64 ]

let test_pointer_chase_serialized_misses () =
  let profile = Profile.run (program (micro "pointer-chase")) ~n:50000 in
  Alcotest.(check bool) "many long misses" true (per_ki profile profile.Profile.long_misses > 50.0);
  (* One serialized chain (chase_chains = 1): dependence-aware
     grouping must break the dense miss sequence into near-isolated
     groups. *)
  let mean_group = Fom_util.Distribution.mean profile.Profile.long_miss_groups in
  Alcotest.(check bool)
    (Printf.sprintf "chains split groups (mean %.1f)" mean_group)
    true (mean_group < 2.5)

let test_streaming_overlapped_misses () =
  let profile = Profile.run (program (micro "streaming")) ~n:50000 in
  Alcotest.(check bool) "long misses occur" true (per_ki profile profile.Profile.long_misses > 5.0);
  let mean_group = Fom_util.Distribution.mean profile.Profile.long_miss_groups in
  let chase_profile = Profile.run (program (micro "pointer-chase")) ~n:50000 in
  let chase_group = Fom_util.Distribution.mean chase_profile.Profile.long_miss_groups in
  Alcotest.(check bool)
    (Printf.sprintf "streams group more than chases (%.1f vs %.1f)" mean_group chase_group)
    true
    (mean_group > chase_group)

let test_branchy_misprediction_bound () =
  let profile = Profile.run (program (micro "branchy")) ~n:50000 in
  Alcotest.(check bool) "high misprediction rate" true
    (per_ki profile profile.Profile.mispredictions > 30.0)

let test_loopy_nearly_ideal () =
  let stats =
    Fom_uarch.Simulate.run Fom_uarch.Config.baseline (program (micro "loopy")) ~n:50000
  in
  Alcotest.(check bool) "near width" true (Fom_uarch.Stats.ipc stats > 3.0)

let test_micro_model_tracks_sim () =
  (* The model should stay honest on the stress cases too (chase is
     the known hard one; allow it more room). *)
  List.iter
    (fun (config, tolerance) ->
      let p = program config in
      let n = 60000 in
      let inputs = Fom_analysis.Characterize.inputs ~params:Fom_model.Params.baseline p ~n in
      let model = Fom_model.Cpi.total (Fom_model.Cpi.evaluate Fom_model.Params.baseline inputs) in
      let sim = Fom_uarch.Stats.cpi (Fom_uarch.Simulate.run Fom_uarch.Config.baseline p ~n) in
      let err = Float.abs (model -. sim) /. sim in
      Alcotest.(check bool)
        (Printf.sprintf "%s: model %.2f sim %.2f err %.0f%%" config.Config.name model sim
           (100. *. err))
        true (err < tolerance))
    [
      (* Streaming sits in the rolling-overlap regime that
         leader-anchored grouping truncates (misses pipeline through
         the ROB continuously); the first-order model overestimates
         there, as the paper's own overlap discussion anticipates. *)
      (micro "streaming", 0.6);
      (micro "branchy", 0.25);
      (micro "loopy", 0.15);
      (micro "pointer-chase", 0.5);
    ]

(* Randomized end-to-end property: for arbitrary (valid) workload
   parameters, the model stays within a loose band of the simulator.
   This guards the whole pipeline against regressions that the
   calibrated presets might not exercise. *)
let random_config rng k =
  let open Fom_util.Rng in
  let base = Spec2000.find "gcc" in
  let f lo hi = lo +. float rng (hi -. lo) in
  {
    base with
    Config.name = Printf.sprintf "random-%d" k;
    seed = 1000 + int rng 100000;
    mix =
      {
        Config.load = f 0.1 0.3;
        store = f 0.02 0.12;
        branch = f 0.1 0.2;
        jump = f 0.01 0.05;
        mul = f 0.0 0.08;
        div = f 0.0 0.01;
      };
    deps =
      {
        Config.short_p = f 0.6 0.95;
        short_mean = f 1.5 4.0;
        long_max = 64 + int rng 256;
        nsrc_weights = [| f 0.05 0.4; 0.5; f 0.1 0.5 |];
      };
    control =
      {
        base.Config.control with
        Config.regions = 2 + int rng 12;
        blocks_per_region = 8 + int rng 20;
        chaotic_frac = f 0.0 0.06;
        loop_trip_mean = f 4.0 32.0;
      };
    memory =
      {
        base.Config.memory with
        Config.local_frac = 0.7;
        random_frac = f 0.0 0.2;
        stream_frac = 0.0;
        chase_frac = 0.0;
      };
  }

let fix_memory (c : Config.t) =
  (* Make the four fractions sum to 1 after randomization. *)
  let m = c.Config.memory in
  let rest = 1.0 -. m.Config.random_frac -. m.Config.stream_frac -. m.Config.chase_frac in
  { c with Config.memory = { m with Config.local_frac = rest } }

let test_random_configs_model_tracks_sim () =
  let rng = Fom_util.Rng.create 4242 in
  for k = 1 to 4 do
    let config = fix_memory (random_config rng k) in
    Config.validate config;
    let p = program config in
    let n = 50000 in
    let inputs =
      Fom_analysis.Characterize.inputs ~iw_instructions:10000 ~params:Fom_model.Params.baseline
        p ~n
    in
    let model = Fom_model.Cpi.total (Fom_model.Cpi.evaluate Fom_model.Params.baseline inputs) in
    let sim = Fom_uarch.Stats.cpi (Fom_uarch.Simulate.run Fom_uarch.Config.baseline p ~n) in
    let err = Float.abs (model -. sim) /. sim in
    Alcotest.(check bool)
      (Printf.sprintf "config %d: model %.2f sim %.2f err %.0f%%" k model sim (100. *. err))
      true (err < 0.30)
  done

let suite =
  ( "workloads",
    [
      Alcotest.test_case "all presets validate" `Quick test_all_presets_validate;
      Alcotest.test_case "beta extremes (vpr, vortex)" `Slow test_beta_extremes;
      Alcotest.test_case "vpr highest latency" `Slow test_vpr_high_latency;
      Alcotest.test_case "mcf memory bound" `Slow test_mcf_memory_bound;
      Alcotest.test_case "vortex predicted better than gcc" `Slow test_vortex_predicted_better_than_gcc;
      Alcotest.test_case "icache benchmark split" `Slow test_icache_benchmarks;
      Alcotest.test_case "mispredict rates in band" `Slow test_mispredict_rates_realistic;
      Alcotest.test_case "micro: serial chain ipc 1" `Quick test_serial_chain_ipc_one;
      Alcotest.test_case "micro: independent scales" `Quick test_independent_scales_with_window;
      Alcotest.test_case "micro: chase serialized" `Quick test_pointer_chase_serialized_misses;
      Alcotest.test_case "micro: streaming overlaps" `Quick test_streaming_overlapped_misses;
      Alcotest.test_case "micro: branchy" `Quick test_branchy_misprediction_bound;
      Alcotest.test_case "micro: loopy near ideal" `Quick test_loopy_nearly_ideal;
      Alcotest.test_case "micro: model tracks sim" `Slow test_micro_model_tracks_sim;
      Alcotest.test_case "random configs: model tracks sim" `Slow
        test_random_configs_model_tracks_sim;
    ] )
