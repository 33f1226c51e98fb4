(* Tests for Fom_analysis: the idealized IW simulation, curve fitting,
   functional profiling and input assembly. *)

module Iw_sim = Fom_analysis.Iw_sim
module Iw_curve = Fom_analysis.Iw_curve
module Profile = Fom_analysis.Profile
module Characterize = Fom_analysis.Characterize
module Params = Fom_model.Params
module Inputs = Fom_model.Inputs
module Distribution = Fom_util.Distribution
module Hierarchy = Fom_cache.Hierarchy
module Predictor = Fom_branch.Predictor

let program name = Fom_trace.Program.generate (Fom_workloads.Spec2000.find name)
let micro_preset name =
  List.find (fun c -> c.Fom_trace.Config.name = name) Fom_workloads.Micro.all
let gzip = lazy (program "gzip")
let mcf = lazy (program "mcf")
let vpr = lazy (program "vpr")
let vortex = lazy (program "vortex")

let test_iw_sim_monotone_in_window () =
  let p = Lazy.force gzip in
  let i4 = Iw_sim.ipc p ~window:4 ~n:20000 in
  let i32 = Iw_sim.ipc p ~window:32 ~n:20000 in
  let i256 = Iw_sim.ipc p ~window:256 ~n:20000 in
  Alcotest.(check bool) "4 < 32" true (i4 < i32);
  Alcotest.(check bool) "32 < 256" true (i32 < i256)

let test_iw_sim_window_one () =
  (* A one-entry window is strictly in-order scalar issue: IPC 1 under
     unit latency. *)
  let ipc = Iw_sim.ipc (Lazy.force gzip) ~window:1 ~n:5000 in
  Alcotest.(check (float 0.01)) "ipc 1" 1.0 ipc

let test_iw_sim_issue_limit_caps () =
  let p = Lazy.force gzip in
  let unlimited = Iw_sim.ipc p ~window:128 ~n:20000 in
  let limited = Iw_sim.ipc p ~window:128 ~n:20000 ~issue_limit:2 in
  Alcotest.(check bool) "capped at 2" true (limited <= 2.0 +. 1e-9);
  Alcotest.(check bool) "unlimited higher" true (unlimited > limited)

let test_iw_sim_latency_littles_law () =
  (* Doubling every latency should roughly halve the issue rate at a
     fixed window (the paper's Little's-law argument). *)
  let p = Lazy.force gzip in
  let unit = Iw_sim.ipc p ~window:64 ~n:20000 in
  let doubled =
    Iw_sim.ipc p ~window:64 ~n:20000
      ~latencies:(Fom_isa.Latency.make ~alu:2 ~mul:2 ~div:2 ~load:2 ~store:2 ~branch:2 ~jump:2 ())
  in
  (* Little's law is a first-order approximation; allow 15% slack. *)
  let ratio = doubled /. (unit /. 2.0) in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f within 15%% of 1" ratio)
    true
    (ratio > 0.85 && ratio < 1.15)

let test_iw_curve_power_law_quality () =
  (* The paper's Figure 4: the measured points lie close to a power
     law on log-log axes. *)
  List.iter
    (fun p ->
      let curve = Iw_curve.measure ~n:20000 (Lazy.force p) in
      Alcotest.(check bool) "good fit" true (curve.Iw_curve.fit.Fom_util.Fit.r2 > 0.93);
      Alcotest.(check bool) "alpha in range" true
        (Iw_curve.alpha curve > 0.5 && Iw_curve.alpha curve < 3.0);
      Alcotest.(check bool) "beta in range" true
        (Iw_curve.beta curve > 0.1 && Iw_curve.beta curve < 1.0))
    [ gzip; mcf; vortex ]

let test_iw_curve_benchmark_ordering () =
  (* vpr is the paper's low-ILP extreme and vortex the high-ILP one;
     the synthetic counterparts keep that ordering. *)
  let beta_of p = Iw_curve.beta (Iw_curve.measure ~n:20000 (Lazy.force p)) in
  Alcotest.(check bool) "vpr below vortex" true (beta_of vpr < beta_of vortex)

let test_iw_curve_points_sorted () =
  let curve = Iw_curve.measure ~n:5000 ~windows:[ 16; 4; 64 ] (Lazy.force gzip) in
  let windows = List.map (fun pt -> pt.Iw_curve.window) curve.Iw_curve.points in
  Alcotest.(check (list int)) "sorted unique" [ 4; 16; 64 ] windows

let test_profile_counts_consistent () =
  let prof = Profile.run (Lazy.force gzip) ~n:50000 in
  Alcotest.(check int) "instructions" 50000 prof.Profile.instructions;
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 prof.Profile.class_counts in
  Alcotest.(check int) "class counts add up" 50000 total;
  Alcotest.(check bool) "mispredictions at most branches" true
    (prof.Profile.mispredictions <= prof.Profile.branches)

let test_profile_avg_latency_bounds () =
  let prof = Profile.run (Lazy.force vpr) ~n:50000 in
  Alcotest.(check bool) "at least 1" true (prof.Profile.avg_latency >= 1.0);
  Alcotest.(check bool) "below max class latency" true (prof.Profile.avg_latency < 12.0)

let test_profile_ideal_cache_no_misses () =
  let prof = Profile.run ~cache:Hierarchy.all_ideal (Lazy.force mcf) ~n:30000 in
  Alcotest.(check int) "no long misses" 0 prof.Profile.long_misses;
  Alcotest.(check int) "no short misses" 0 prof.Profile.short_misses;
  Alcotest.(check int) "no l1i misses" 0 prof.Profile.l1i_misses

let test_profile_ideal_predictor_no_mispredictions () =
  let prof = Profile.run ~predictor:Predictor.Ideal (Lazy.force gzip) ~n:30000 in
  Alcotest.(check int) "none" 0 prof.Profile.mispredictions

let test_profile_matches_machine_events () =
  (* The functional profile and the detailed simulator replay the same
     predictor and cache state over the same trace, so the event
     counts must agree closely (fetch-path details differ slightly). *)
  let p = Lazy.force gzip in
  let n = 50000 in
  let prof = Profile.run p ~n in
  let sim = Fom_uarch.Simulate.run Fom_uarch.Config.baseline p ~n in
  let close a b label =
    let a = float_of_int a and b = float_of_int b in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %g vs %g" label a b)
      true
      (Float.abs (a -. b) <= 0.1 *. Float.max 1.0 (Float.max a b))
  in
  close prof.Profile.mispredictions sim.Fom_uarch.Stats.branch_mispredictions "mispredictions";
  close prof.Profile.long_misses sim.Fom_uarch.Stats.long_data_misses "long misses";
  close prof.Profile.short_misses sim.Fom_uarch.Stats.short_data_misses "short misses"

let test_burst_members_match_mispredictions () =
  let prof = Profile.run (Lazy.force gzip) ~n:50000 in
  let members =
    List.fold_left
      (fun acc (size, count) -> acc + (size * count))
      0
      (Distribution.to_list prof.Profile.mispred_bursts)
  in
  Alcotest.(check int) "every misprediction in exactly one burst" prof.Profile.mispredictions
    members

let test_stats_pp_smoke () =
  let stats = Fom_uarch.Simulate.run Fom_uarch.Config.baseline (Lazy.force gzip) ~n:5000 in
  let s = Format.asprintf "%a" Fom_uarch.Stats.pp stats in
  Alcotest.(check bool) "mentions IPC" true
    (String.length s > 0
    &&
    let re_found = ref false in
    String.iteri (fun i c -> if c = 'I' && i + 2 < String.length s && s.[i+1] = 'P' && s.[i+2] = 'C' then re_found := true) s;
    !re_found)

let test_profile_grouping_modes () =
  let p = Lazy.force mcf in
  let aware = Profile.run ~grouping:Profile.Dependence_aware p ~n:50000 in
  let naive = Profile.run ~grouping:Profile.Paper_naive p ~n:50000 in
  Alcotest.(check int) "same misses" aware.Profile.long_misses naive.Profile.long_misses;
  (* Chains split dependence-aware groups, so there are at least as
     many groups (i.e. smaller mean size). *)
  Alcotest.(check bool) "aware has more groups" true
    (Distribution.total aware.Profile.long_miss_groups
    >= Distribution.total naive.Profile.long_miss_groups)

let test_profile_group_members_match_misses () =
  let prof = Profile.run (Lazy.force mcf) ~n:50000 in
  let members =
    List.fold_left
      (fun acc (size, count) -> acc + (size * count))
      0
      (Distribution.to_list prof.Profile.long_miss_groups)
  in
  Alcotest.(check int) "every miss in exactly one group" prof.Profile.long_misses members

let test_iw_sim_agrees_with_machine () =
  (* Two independent implementations of the idealized window-limited
     machine: the lean dataflow simulation and the full cycle-level
     simulator configured to the same idealization (unit latencies,
     unbounded issue, instant-ish front end, huge ROB). Their IPCs
     must agree closely. *)
  let p = Lazy.force gzip in
  List.iter
    (fun window ->
      let lean = Iw_sim.ipc p ~window ~n:20000 in
      let config =
        {
          (Fom_uarch.Config.ideal Fom_uarch.Config.baseline) with
          Fom_uarch.Config.width = 512;
          pipeline_depth = 1;
          window_size = window;
          rob_size = 65536;
          unbounded_issue = true;
          latencies = Fom_isa.Latency.unit;
        }
      in
      let machine = Fom_uarch.Stats.ipc (Fom_uarch.Simulate.run config p ~n:20000) in
      let ratio = machine /. lean in
      Alcotest.(check bool)
        (Printf.sprintf "window %d: machine %.2f vs lean %.2f" window machine lean)
        true
        (ratio > 0.92 && ratio < 1.08))
    [ 8; 32; 128 ]

(* Unit, default, or a table drawn from [seed] with every class in 1-11. *)
let latency_table sel seed =
  match sel with
  | 0 -> Fom_isa.Latency.unit
  | 1 -> Fom_isa.Latency.default
  | _ ->
      let pick k = 1 + ((seed / (k + 1)) mod 11) in
      Fom_isa.Latency.make ~alu:(pick 1) ~mul:(pick 2) ~div:(pick 3) ~load:(pick 4)
        ~store:(pick 5) ~branch:(pick 6) ~jump:(pick 7) ()

let presets = Array.of_list (Fom_workloads.Spec2000.all @ Fom_workloads.Micro.all)

(* The recurrence kernel against the cycle-by-cycle oracle on one
   source: exact float equality, not closeness. *)
let kernel_matches_oracle ?issue_limit ~latencies source ~window ~n =
  let packed = Fom_trace.Packed.of_source source ~n:(n + window) in
  let reference = Iw_oracle.ipc_of_packed ~latencies ?issue_limit packed ~window ~n in
  Float.equal reference (Iw_sim.ipc_of_packed ~latencies ?issue_limit packed ~window ~n)

let prop_packed_kernel_bit_identical =
  (* The recurrence computes *bit-identical* IPC to the oracle across
     Spec2000 and micro presets, stream seeds, windows 1-280, issue
     limits (none or 1-8) and unit, default and random latency
     tables. *)
  QCheck.Test.make ~name:"packed kernel IPC bit-identical to reference" ~count:60
    QCheck.(
      pair
        (quad (int_bound (Array.length presets - 1)) (int_range 1 280) (int_bound 100_000)
           (int_range 0 8))
        (int_range 0 2))
    (fun ((preset, window, seed, limit_sel), latency_sel) ->
      let source =
        Fom_trace.Source.of_program ~seed (Fom_trace.Program.generate presets.(preset))
      in
      let issue_limit = if limit_sel = 0 then None else Some limit_sel in
      kernel_matches_oracle ?issue_limit ~latencies:(latency_table latency_sel seed) source
        ~window ~n:2000)

let test_packed_kernel_grid () =
  (* A fixed grid beside the random draws: three Spec2000 and three
     micro presets, small/medium/large windows, unbounded/narrow/wide
     issue, unit and default latencies. *)
  let micro = List.map micro_preset [ "serial-chain"; "pointer-chase"; "independent" ] in
  List.iter
    (fun (config : Fom_trace.Config.t) ->
      let name = config.Fom_trace.Config.name in
      let source = Fom_trace.Source.of_program (Fom_trace.Program.generate config) in
      List.iter
        (fun window ->
          List.iter
            (fun issue_limit ->
              List.iter
                (fun latency_sel ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s W=%d limit=%s latencies=%d" name window
                       (Option.fold ~none:"none" ~some:string_of_int issue_limit)
                       latency_sel)
                    true
                    (kernel_matches_oracle ?issue_limit
                       ~latencies:(latency_table latency_sel 0)
                       source ~window ~n:3000))
                [ 0; 1 ])
            [ None; Some 1; Some 4 ])
        [ 3; 48; 256 ])
    (List.map Fom_workloads.Spec2000.find [ "gzip"; "mcf"; "vortex" ] @ micro)

let test_packed_round_trip () =
  (* Packed decode must replay instruction-for-instruction what the
     source replays, including re-based indices and dependences in the
     wrapped region past the packed length. *)
  let len = 500 in
  let total = (2 * len) + 37 in
  let source = Fom_trace.Source.of_program (Lazy.force gzip) in
  let packed = Fom_trace.Packed.of_source source ~n:len in
  Alcotest.(check int) "length" len (Fom_trace.Packed.length packed);
  Alcotest.(check string) "label" (Fom_trace.Source.label source)
    (Fom_trace.Packed.label packed);
  let expect =
    let stream = Fom_trace.Stream.create (Lazy.force gzip) in
    let base = Array.init len (fun _ -> Fom_trace.Stream.next stream) in
    let wrapped = Fom_trace.Packed.of_source (Fom_trace.Source.of_instrs base) ~n:total in
    Array.init total (Fom_trace.Packed.instr wrapped)
  in
  Array.iteri
    (fun i ins ->
      Alcotest.(check bool)
        (Printf.sprintf "decoded instr %d" i)
        true
        (Fom_trace.Packed.instr packed i = ins))
    expect

let expect_code code thunk =
  match thunk () with
  | exception Fom_check.Checker.Invalid ds ->
      Alcotest.(check bool) code true
        (List.exists (fun d -> d.Fom_check.Diagnostic.code = code) ds)
  | _ -> Alcotest.fail (Printf.sprintf "expected %s" code)

let test_iw_sim_rejects_window_beyond_ring () =
  let packed =
    Fom_trace.Packed.of_source (Fom_trace.Source.of_program (Lazy.force gzip)) ~n:64
  in
  expect_code "FOM-I031" (fun () ->
      Iw_sim.ipc_of_packed packed ~window:(Iw_sim.ring_size + 1) ~n:10);
  (* The kernel also refuses traces too short for the run. *)
  expect_code "FOM-I033" (fun () -> Iw_sim.ipc_of_packed packed ~window:32 ~n:64)

let test_iw_sim_rejects_non_positive_issue_limit () =
  (* A zero-slot cycle never issues anything, so the run would never
     end: every entry point refuses the limit up front. *)
  let p = Lazy.force gzip in
  let packed = Fom_trace.Packed.of_source (Fom_trace.Source.of_program p) ~n:200 in
  List.iter
    (fun issue_limit ->
      expect_code "FOM-I030" (fun () -> Iw_sim.ipc ~issue_limit p ~window:8 ~n:100);
      expect_code "FOM-I030" (fun () ->
          Iw_sim.ipc_of_packed ~issue_limit packed ~window:8 ~n:100);
      expect_code "FOM-I030" (fun () ->
          Iw_curve.measure ~issue_limit ~windows:[ 8 ] ~n:100 p))
    [ 0; -1 ]

(* The three [iw.bound.*] counters after one IPC evaluation. *)
let bound_counts ?issue_limit program ~window ~n =
  Fom_obs.Sink.enable ();
  Fun.protect ~finally:Fom_obs.Sink.disable (fun () ->
      ignore (Iw_sim.ipc ?issue_limit program ~window ~n);
      let counters = (Fom_obs.Metrics.snapshot ()).Fom_obs.Metrics.counters in
      let get name = Option.value (List.assoc_opt name counters) ~default:0 in
      (get "iw.bound.window", get "iw.bound.dependence", get "iw.bound.width"))

let share part (w, d, x) = float_of_int part /. float_of_int (w + d + x)

let test_iw_bound_counts () =
  (* Each considered instruction is bound by exactly one term. *)
  List.iter
    (fun (issue_limit, window) ->
      let w, d, x = bound_counts ?issue_limit (Lazy.force mcf) ~window ~n:5000 in
      Alcotest.(check int)
        (Printf.sprintf "W=%d: counts sum to n + W - 1" window)
        (5000 + window - 1)
        (w + d + x);
      if issue_limit = None then Alcotest.(check int) "no width bound" 0 x)
    [ (None, 1); (None, 64); (Some 2, 64); (Some 3, 256) ];
  let micro name = Fom_trace.Program.generate (micro_preset name) in
  let ((_, d, _) as counts) =
    bound_counts (micro "serial-chain") ~window:64 ~n:20000
  in
  Alcotest.(check bool) "serial chain >= 99% dependence-bound" true (share d counts >= 0.99);
  let ((_, _, x) as counts) =
    bound_counts ~issue_limit:2 (micro "independent") ~window:64 ~n:20000
  in
  Alcotest.(check bool) "independent at width 2 >= 90% width-bound" true
    (share x counts >= 0.90)

let test_iw_dependence_share_rises () =
  (* The paper's claim behind the power law: as the window grows,
     dependences rather than the window bound ever more instructions. *)
  let shares =
    List.map
      (fun window ->
        let ((_, d, _) as counts) = bound_counts (Lazy.force gzip) ~window ~n:20000 in
        share d counts)
      Iw_curve.default_windows
  in
  let rec rising = function a :: (b :: _ as rest) -> a < b && rising rest | _ -> true in
  Alcotest.(check bool)
    (String.concat " " (List.map (Printf.sprintf "%.3f") shares))
    true (rising shares)

let test_characterize_assembles_inputs () =
  let inputs = Characterize.inputs ~params:Params.baseline (Lazy.force gzip) ~n:50000 in
  Inputs.validate inputs;
  Alcotest.(check string) "name" "gzip" inputs.Inputs.name;
  Alcotest.(check bool) "rates populated" true (inputs.Inputs.mispredictions_per_instr > 0.0)

let test_characterize_model_tracks_simulation () =
  (* The end-to-end claim (paper Figure 15): model CPI within ~15% of
     detailed simulation. The full 12-benchmark check runs in the
     bench harness; here three representative workloads gate
     regressions. *)
  List.iter
    (fun p ->
      let p = Lazy.force p in
      let n = 100000 in
      let inputs = Characterize.inputs ~params:Params.baseline p ~n in
      let model = Fom_model.Cpi.total (Fom_model.Cpi.evaluate Params.baseline inputs) in
      let sim = Fom_uarch.Stats.cpi (Fom_uarch.Simulate.run Fom_uarch.Config.baseline p ~n) in
      let err = Float.abs (model -. sim) /. sim in
      Alcotest.(check bool)
        (Printf.sprintf "%s: model %.3f sim %.3f err %.1f%%" p.Fom_trace.Program.config.Fom_trace.Config.name model sim
           (100. *. err))
        true (err < 0.15))
    [ gzip; mcf; vortex ]

let suite =
  ( "analysis",
    [
      Alcotest.test_case "iw sim monotone in window" `Quick test_iw_sim_monotone_in_window;
      Alcotest.test_case "iw sim window one" `Quick test_iw_sim_window_one;
      Alcotest.test_case "iw sim issue limit" `Quick test_iw_sim_issue_limit_caps;
      Alcotest.test_case "iw sim little's law" `Quick test_iw_sim_latency_littles_law;
      Alcotest.test_case "iw curves are power laws" `Quick test_iw_curve_power_law_quality;
      Alcotest.test_case "iw curve benchmark ordering" `Quick test_iw_curve_benchmark_ordering;
      Alcotest.test_case "iw curve points sorted" `Quick test_iw_curve_points_sorted;
      Alcotest.test_case "profile counts consistent" `Quick test_profile_counts_consistent;
      Alcotest.test_case "profile latency bounds" `Quick test_profile_avg_latency_bounds;
      Alcotest.test_case "profile ideal cache" `Quick test_profile_ideal_cache_no_misses;
      Alcotest.test_case "profile ideal predictor" `Quick
        test_profile_ideal_predictor_no_mispredictions;
      Alcotest.test_case "profile matches machine events" `Quick
        test_profile_matches_machine_events;
      Alcotest.test_case "bursts partition mispredictions" `Quick
        test_burst_members_match_mispredictions;
      Alcotest.test_case "stats pp smoke" `Quick test_stats_pp_smoke;
      Alcotest.test_case "profile grouping modes" `Quick test_profile_grouping_modes;
      Alcotest.test_case "group members match misses" `Quick
        test_profile_group_members_match_misses;
      Alcotest.test_case "iw sim agrees with machine" `Quick test_iw_sim_agrees_with_machine;
      QCheck_alcotest.to_alcotest prop_packed_kernel_bit_identical;
      Alcotest.test_case "packed kernel grid matches oracle" `Quick test_packed_kernel_grid;
      Alcotest.test_case "packed round trip" `Quick test_packed_round_trip;
      Alcotest.test_case "iw sim ring guards" `Quick test_iw_sim_rejects_window_beyond_ring;
      Alcotest.test_case "iw sim rejects non-positive issue limit" `Quick
        test_iw_sim_rejects_non_positive_issue_limit;
      Alcotest.test_case "iw bound counts" `Quick test_iw_bound_counts;
      Alcotest.test_case "iw dependence share rises with window" `Quick
        test_iw_dependence_share_rises;
      Alcotest.test_case "characterize assembles inputs" `Quick test_characterize_assembles_inputs;
      Alcotest.test_case "model tracks simulation" `Slow test_characterize_model_tracks_simulation;
    ] )
