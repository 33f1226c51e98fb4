(* Tests for Fom_model: IW characteristic algebra, transient engine,
   penalty formulas, CPI composition, trend analyses. *)

module Iw = Fom_model.Iw_characteristic
module Transient = Fom_model.Transient
module Penalties = Fom_model.Penalties
module Params = Fom_model.Params
module Inputs = Fom_model.Inputs
module Cpi = Fom_model.Cpi
module Trends = Fom_model.Trends
module Distribution = Fom_util.Distribution

let square4 = Iw.make ~alpha:1.0 ~beta:0.5 ~issue_width:4.0 ()

(* Penalties on [square4] at [params]' window size. *)
let branch_penalty params ~burst =
  Penalties.branch_misprediction (Penalties.transients square4 params) params ~burst

let icache_penalty params ~delay =
  Penalties.icache_miss (Penalties.transients square4 params) params ~delay

let inputs_stub ?(mispred = 0.005) ?(l1i = 0.001) ?(l2i = 0.0002) ?(long = 0.002)
    ?(groups = Distribution.of_list [ (1, 10) ]) ?(alpha = 1.2) ?(beta = 0.6)
    ?(latency = 1.3) () =
  {
    Inputs.name = "stub";
    instructions = 100_000;
    alpha;
    beta;
    fit_r2 = 0.99;
    avg_latency = latency;
    mispredictions_per_instr = mispred;
    mispred_bursts = Distribution.of_list [ (1, 50) ];
    l1i_misses_per_instr = l1i;
    l2i_misses_per_instr = l2i;
    short_misses_per_instr = 0.01;
    long_misses_per_instr = long;
    long_miss_groups = groups;
    dtlb_misses_per_instr = 0.0;
    dtlb_groups = Distribution.create ();
  }

let test_issue_rate_power_law () =
  let iw = Iw.make ~alpha:1.0 ~beta:0.5 () in
  Alcotest.(check (float 1e-9)) "sqrt form" 4.0 (Iw.issue_rate iw 16.0);
  Alcotest.(check (float 1e-9)) "zero at zero" 0.0 (Iw.issue_rate iw 0.0)

let test_issue_rate_clipped_at_width () =
  Alcotest.(check (float 1e-9)) "clipped" 4.0 (Iw.issue_rate square4 100.0)

let test_issue_rate_clipped_at_occupancy () =
  let iw = Iw.make ~alpha:2.0 ~beta:0.9 () in
  Alcotest.(check bool) "never above occupancy" true (Iw.issue_rate iw 1.0 <= 1.0)

let test_littles_law () =
  (* Issue rate divides by the mean latency. *)
  let unit = Iw.make ~alpha:1.0 ~beta:0.5 () in
  let slow = Iw.make ~alpha:1.0 ~beta:0.5 ~avg_latency:2.0 () in
  Alcotest.(check (float 1e-9)) "halved" (Iw.issue_rate unit 16.0 /. 2.0)
    (Iw.issue_rate slow 16.0)

let test_occupancy_inverse () =
  (* A width the unclipped curve reaches at occupancy 37: the steady
     state of a larger window sits exactly there. *)
  let issue_width = 1.3 *. Float.pow 37.0 0.55 /. 1.4 in
  let iw = Iw.make ~alpha:1.3 ~beta:0.55 ~avg_latency:1.4 ~issue_width () in
  Alcotest.(check (float 1e-6)) "roundtrip" 37.0 (Iw.steady_state_occupancy iw ~window:64)

let test_steady_state () =
  (* Square law, width 4: saturates when sqrt(48) > 4, occupancy 16. *)
  Alcotest.(check (float 1e-9)) "ipc" 4.0 (Iw.steady_state_ipc square4 ~window:48);
  Alcotest.(check (float 1e-6)) "occupancy" 16.0 (Iw.steady_state_occupancy square4 ~window:48)

let test_steady_state_unsaturated () =
  let iw = Iw.make ~alpha:1.0 ~beta:0.3 ~avg_latency:2.2 ~issue_width:4.0 () in
  let ipc = Iw.steady_state_ipc iw ~window:48 in
  Alcotest.(check bool) "below width" true (ipc < 4.0);
  Alcotest.(check (float 1e-6)) "occupancy is full window" 48.0
    (Iw.steady_state_occupancy iw ~window:48)

let test_drain_matches_paper_figure8 () =
  (* Paper Figure 8: drain penalty about 2.1 cycles for the square law
     with width 4 and a five-stage front end. *)
  let d = Transient.drain square4 ~window:48 in
  Alcotest.(check bool)
    (Printf.sprintf "drain penalty %.2f in [1.5, 2.6]" d.Transient.penalty)
    true
    (d.Transient.penalty > 1.5 && d.Transient.penalty < 2.6)

let test_ramp_matches_paper_figure8 () =
  (* Paper Figure 8: ramp-up penalty about 2.7 cycles. *)
  let r = Transient.ramp_up square4 ~window:48 in
  Alcotest.(check bool)
    (Printf.sprintf "ramp penalty %.2f in [2.0, 4.0]" r.Transient.penalty)
    true
    (r.Transient.penalty > 2.0 && r.Transient.penalty < 4.0)

let test_transient_instructions_positive () =
  let d = Transient.drain square4 ~window:48 in
  Alcotest.(check bool) "drains instructions" true (d.Transient.instructions > 0.0);
  let r = Transient.ramp_up square4 ~window:48 in
  Alcotest.(check bool) "ramp issues instructions" true (r.Transient.instructions > 0.0)

let test_interval_ipc_approaches_steady () =
  let long_run = Transient.interval square4 ~window:48 ~pipeline_depth:5 ~instructions:100000 in
  Alcotest.(check (float 0.05)) "approaches width" 4.0 long_run.Transient.ipc

let test_interval_short_is_slow () =
  let short_run = Transient.interval square4 ~window:48 ~pipeline_depth:5 ~instructions:20 in
  Alcotest.(check bool) "well below steady" true (short_run.Transient.ipc < 2.5)

let test_branch_penalty_exceeds_depth () =
  (* Paper observation 1: the misprediction penalty exceeds the
     front-end depth. *)
  let penalty = branch_penalty Params.baseline ~burst:1.0 in
  Alcotest.(check bool) "exceeds depth" true (penalty > 5.0);
  Alcotest.(check bool) "within 2x depth + slack" true (penalty < 12.0)

let test_branch_penalty_burst_reduces () =
  let isolated = branch_penalty Params.baseline ~burst:1.0 in
  let bursty = branch_penalty Params.baseline ~burst:4.0 in
  Alcotest.(check bool) "bursts cheaper" true (bursty < isolated);
  Alcotest.(check bool) "floor is the depth" true (bursty > 5.0)

let test_paper_constant_near_7_5 () =
  let penalty = Penalties.branch_misprediction_paper Params.baseline in
  Alcotest.(check bool)
    (Printf.sprintf "paper constant %.2f near 7.5" penalty)
    true
    (penalty > 6.5 && penalty < 8.5)

let test_icache_penalty_near_delay () =
  (* Paper observation 2: drain and ramp-up offset, penalty about the
     miss delay and independent of the front-end depth. *)
  let p5 = icache_penalty Params.baseline ~delay:8 in
  Alcotest.(check bool) "near delay" true (Float.abs (p5 -. 8.0) < 2.5);
  let deep = { Params.baseline with Params.pipeline_depth = 9 } in
  let p9 = icache_penalty deep ~delay:8 in
  Alcotest.(check (float 1e-9)) "independent of depth" p5 p9

let test_dcache_penalty_group_scaling () =
  (* Paper observation 3: an isolated long miss costs the miss delay;
     grouped misses share one penalty. *)
  let isolated = Penalties.dcache_long_miss Params.baseline ~group_factor:1.0 in
  Alcotest.(check (float 1e-9)) "isolated is delay" 200.0 isolated;
  let paired = Penalties.dcache_long_miss Params.baseline ~group_factor:0.5 in
  Alcotest.(check (float 1e-9)) "pair halves" 100.0 paired

let test_dcache_rob_fill () =
  let corrected = Penalties.dcache_long_miss ~rob_fill:30.0 Params.baseline ~group_factor:1.0 in
  Alcotest.(check (float 1e-9)) "subtracted" 170.0 corrected;
  let estimate = Penalties.rob_fill_estimate square4 Params.baseline in
  Alcotest.(check bool) "estimate positive and bounded" true
    (estimate > 0.0 && estimate < float_of_int Params.baseline.Params.rob_size)

let test_inputs_group_factor () =
  let single = inputs_stub ~groups:(Distribution.of_list [ (1, 10) ]) () in
  Alcotest.(check (float 1e-9)) "isolated" 1.0 (Inputs.long_group_factor single);
  (* 10 groups of 4: factor 1/4. *)
  let grouped = inputs_stub ~groups:(Distribution.of_list [ (4, 10) ]) () in
  Alcotest.(check (float 1e-9)) "quarter" 0.25 (Inputs.long_group_factor grouped);
  (* Mixed {1-group, 100-group}: groups/misses = 2/101. *)
  let mixed = inputs_stub ~groups:(Distribution.of_list [ (1, 1); (100, 1) ]) () in
  Alcotest.(check (float 1e-9)) "harmonic" (2.0 /. 101.0) (Inputs.long_group_factor mixed)

let test_inputs_empty_distributions () =
  let empty = inputs_stub ~groups:(Distribution.create ()) () in
  Alcotest.(check (float 1e-9)) "factor defaults to 1" 1.0 (Inputs.long_group_factor empty)

let test_cpi_composition () =
  let inputs = inputs_stub () in
  let b = Cpi.evaluate Params.baseline inputs in
  Alcotest.(check (float 1e-9)) "components add" (Cpi.total b)
    (b.Cpi.steady +. b.Cpi.branch +. b.Cpi.l1i +. b.Cpi.l2i +. b.Cpi.dcache)

let test_cpi_monotone_in_rates () =
  let low = Cpi.evaluate Params.baseline (inputs_stub ~mispred:0.001 ()) in
  let high = Cpi.evaluate Params.baseline (inputs_stub ~mispred:0.01 ()) in
  Alcotest.(check bool) "more mispredictions cost more" true (Cpi.total high > Cpi.total low)

let test_cpi_zero_events_is_steady () =
  let clean =
    inputs_stub ~mispred:0.0 ~l1i:0.0 ~l2i:0.0 ~long:0.0 ~groups:(Distribution.create ()) ()
  in
  let b = Cpi.evaluate Params.baseline clean in
  Alcotest.(check (float 1e-9)) "only steady" b.Cpi.steady (Cpi.total b)

let test_cpi_modes_differ () =
  let inputs = inputs_stub () in
  let corrected = Cpi.evaluate ~dcache_mode:Cpi.Rob_fill_corrected Params.baseline inputs in
  let paper = Cpi.evaluate ~dcache_mode:Cpi.Paper_delay Params.baseline inputs in
  Alcotest.(check bool) "correction lowers dcache" true (corrected.Cpi.dcache <= paper.Cpi.dcache)

(* Minor words per call; exact on one domain in native code. *)
let words_per_call f =
  let calls = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* Transient runs of [short_steps] and [long_steps] steps allocate
   the same words: nothing per step. *)
let check_step_free label (short_steps, short) (long_steps, long) =
  let steps f = int_of_float (f ()).Transient.cycles in
  Alcotest.(check (pair int int)) (label ^ " steps") (short_steps, long_steps)
    (steps short, steps long);
  Alcotest.(check (float 0.0)) (label ^ ": words independent of steps")
    (words_per_call short) (words_per_call long)

let test_evaluate_allocation () =
  (* The transients step on unboxed locals, and evaluate takes them
     once for the branch and both I-cache penalties. *)
  let iw width = Iw.make ~alpha:1.0 ~beta:0.5 ~issue_width:width () in
  check_step_free "drain"
    (13, fun () -> Transient.drain (iw 1000.0) ~window:64)
    (124, fun () -> Transient.drain (iw 1000.0) ~window:4096);
  check_step_free "ramp-up"
    (22, fun () -> Transient.ramp_up (iw 8.0) ~window:64)
    (179, fun () -> Transient.ramp_up (iw 64.0) ~window:4096);
  let inputs = inputs_stub () in
  let words = words_per_call (fun () -> Cpi.evaluate Params.baseline inputs) in
  (* 87 today: validation allocates nothing on valid inputs, and the
     rest is the characteristic, the transients and the result. Taking
     the two transients once per penalty again would add 62. *)
  Alcotest.(check bool) (Printf.sprintf "evaluate: %.0f words per call <= 90" words) true
    (words <= 90.0)

let test_trends_depth_erodes_width_advantage () =
  let rows = Trends.ipc_vs_depth ~widths:[ 2; 8 ] ~depths:[ 1; 80 ] () in
  let ipc w d = List.assoc d (List.assoc w rows) in
  let shallow_gain = ipc 8 1 /. ipc 2 1 in
  let deep_gain = ipc 8 80 /. ipc 2 80 in
  Alcotest.(check bool) "advantage shrinks with depth" true (deep_gain < shallow_gain)

let test_trends_optimal_depth_matches_paper () =
  (* Paper (and Sprangle & Carmean): optimum near 55 front-end stages
     for issue width 3; wider issue moves the optimum shorter. *)
  let depths = List.init 100 (fun i -> i + 1) in
  let rows = Trends.bips_vs_depth ~widths:[ 2; 3; 4; 8 ] ~depths () in
  let opt w = Trends.optimal_depth (List.assoc w rows) in
  let o3 = opt 3 in
  Alcotest.(check bool) (Printf.sprintf "width 3 optimum %d near 55" o3) true
    (o3 >= 45 && o3 <= 70);
  Alcotest.(check bool) "wider is shorter" true (opt 8 < opt 2)

let test_trends_quadratic_law () =
  (* Paper Figure 18: doubling the width quadruples the required
     distance between mispredictions. *)
  let n4 = Trends.mispred_distance_for_fraction ~width:4 ~fraction:0.3 () in
  let n8 = Trends.mispred_distance_for_fraction ~width:8 ~fraction:0.3 () in
  let ratio = float_of_int n8 /. float_of_int n4 in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f near 4" ratio) true
    (ratio > 3.0 && ratio < 5.0)

let test_trends_trajectory_shape () =
  (* Paper Figure 19: issue width 4 barely reaches 4; width 8 barely
     exceeds 6 with the 48-entry window. *)
  let max_of a = Array.fold_left Float.max 0.0 a in
  let t4 = max_of (Trends.issue_trajectory ~width:4 ()) in
  let t8 = max_of (Trends.issue_trajectory ~width:8 ()) in
  Alcotest.(check bool) "width 4 near 4" true (t4 > 3.5 && t4 <= 4.0);
  Alcotest.(check bool) "width 8 barely above 6" true (t8 > 5.5 && t8 < 7.2)

let test_trajectory_starts_with_fill () =
  let t = Trends.issue_trajectory ~width:4 () in
  Alcotest.(check (float 1e-9)) "dead fill cycle" 0.0 t.(0);
  Alcotest.(check (float 1e-9)) "five dead cycles" 0.0 t.(4)

let prop_steady_ipc_monotone_window =
  QCheck.Test.make ~name:"steady ipc monotone in window" ~count:100
    QCheck.(triple (float_range 0.5 2.0) (float_range 0.2 0.9) (int_range 4 128))
    (fun (alpha, beta, window) ->
      let iw = Iw.make ~alpha ~beta ~issue_width:8.0 () in
      Iw.steady_state_ipc iw ~window <= Iw.steady_state_ipc iw ~window:(window * 2) +. 1e-9)

let prop_branch_penalty_decreasing_in_burst =
  QCheck.Test.make ~name:"branch penalty decreases with burst size" ~count:50
    QCheck.(float_range 1.0 16.0)
    (fun burst ->
      let a = branch_penalty Params.baseline ~burst in
      let b = branch_penalty Params.baseline ~burst:(burst +. 1.0) in
      b <= a +. 1e-9)

let prop_icache_penalty_decreases_with_buffer =
  QCheck.Test.make ~name:"fetch buffer only reduces the icache penalty" ~count:50
    QCheck.(int_range 0 64)
    (fun buffer ->
      let params = { Params.baseline with Params.fetch_buffer = buffer } in
      let with_buffer = icache_penalty params ~delay:8 in
      let without = icache_penalty Params.baseline ~delay:8 in
      with_buffer <= without +. 1e-9 && with_buffer >= 0.0)

let prop_dcache_penalty_monotone =
  QCheck.Test.make ~name:"dcache penalty monotone in rob_fill and group factor" ~count:100
    QCheck.(pair (float_range 0.0 150.0) (float_range 0.1 1.0))
    (fun (rob_fill, group_factor) ->
      let p = Penalties.dcache_long_miss ~rob_fill Params.baseline ~group_factor in
      let p_more_fill =
        Penalties.dcache_long_miss ~rob_fill:(rob_fill +. 10.0) Params.baseline ~group_factor
      in
      let p_more_group =
        Penalties.dcache_long_miss ~rob_fill Params.baseline
          ~group_factor:(Float.min 1.0 (group_factor +. 0.1))
      in
      p_more_fill <= p +. 1e-9 && p_more_group >= p -. 1e-9)

let prop_interval_ipc_increases_with_length =
  QCheck.Test.make ~name:"longer mispredict intervals raise ipc" ~count:50
    QCheck.(int_range 10 2000)
    (fun n ->
      let short_run = Transient.interval square4 ~window:48 ~pipeline_depth:5 ~instructions:n in
      let long_run =
        Transient.interval square4 ~window:48 ~pipeline_depth:5 ~instructions:(2 * n)
      in
      long_run.Transient.ipc >= short_run.Transient.ipc -. 1e-6)

let prop_fu_saturation_monotone =
  QCheck.Test.make ~name:"adding units never lowers saturation" ~count:50
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (alu, load) ->
      let mix = function
        | Fom_isa.Opclass.Alu -> 0.5
        | Fom_isa.Opclass.Load -> 0.25
        | _ -> 0.05
      in
      (* A width above every bound, so the units bind. *)
      let saturation fu = Fom_model.Fu_saturation.effective_width fu ~mix ~width:1000 in
      let small = saturation (Fom_isa.Fu_set.make ~alu ~load ()) in
      let bigger = saturation (Fom_isa.Fu_set.make ~alu:(alu + 1) ~load:(load + 1) ()) in
      bigger >= small -. 1e-9)

let prop_cpi_positive =
  QCheck.Test.make ~name:"cpi components are non-negative" ~count:50
    QCheck.(triple (float_range 0.0 0.02) (float_range 0.0 0.01) (float_range 0.0 0.05))
    (fun (mispred, l1i, long) ->
      let b = Cpi.evaluate Params.baseline (inputs_stub ~mispred ~l1i ~long ()) in
      b.Cpi.steady > 0.0 && b.Cpi.branch >= 0.0 && b.Cpi.l1i >= 0.0 && b.Cpi.dcache >= 0.0)

let suite =
  ( "model",
    [
      Alcotest.test_case "issue rate power law" `Quick test_issue_rate_power_law;
      Alcotest.test_case "issue rate clipped at width" `Quick test_issue_rate_clipped_at_width;
      Alcotest.test_case "issue rate clipped at occupancy" `Quick
        test_issue_rate_clipped_at_occupancy;
      Alcotest.test_case "little's law" `Quick test_littles_law;
      Alcotest.test_case "occupancy inverse" `Quick test_occupancy_inverse;
      Alcotest.test_case "steady state saturated" `Quick test_steady_state;
      Alcotest.test_case "steady state unsaturated" `Quick test_steady_state_unsaturated;
      Alcotest.test_case "drain matches paper fig 8" `Quick test_drain_matches_paper_figure8;
      Alcotest.test_case "ramp matches paper fig 8" `Quick test_ramp_matches_paper_figure8;
      Alcotest.test_case "transients issue instructions" `Quick
        test_transient_instructions_positive;
      Alcotest.test_case "interval approaches steady ipc" `Quick
        test_interval_ipc_approaches_steady;
      Alcotest.test_case "short interval is slow" `Quick test_interval_short_is_slow;
      Alcotest.test_case "branch penalty exceeds depth" `Quick test_branch_penalty_exceeds_depth;
      Alcotest.test_case "bursts reduce branch penalty" `Quick test_branch_penalty_burst_reduces;
      Alcotest.test_case "paper constant near 7.5" `Quick test_paper_constant_near_7_5;
      Alcotest.test_case "icache penalty near delay, depth-free" `Quick
        test_icache_penalty_near_delay;
      Alcotest.test_case "dcache group scaling" `Quick test_dcache_penalty_group_scaling;
      Alcotest.test_case "dcache rob fill" `Quick test_dcache_rob_fill;
      Alcotest.test_case "inputs group factor" `Quick test_inputs_group_factor;
      Alcotest.test_case "inputs empty distributions" `Quick test_inputs_empty_distributions;
      Alcotest.test_case "cpi composition" `Quick test_cpi_composition;
      Alcotest.test_case "cpi monotone in rates" `Quick test_cpi_monotone_in_rates;
      Alcotest.test_case "cpi zero events" `Quick test_cpi_zero_events_is_steady;
      Alcotest.test_case "cpi dcache modes" `Quick test_cpi_modes_differ;
      Alcotest.test_case "evaluate words per call" `Quick test_evaluate_allocation;
      Alcotest.test_case "depth erodes width advantage" `Quick
        test_trends_depth_erodes_width_advantage;
      Alcotest.test_case "optimal depth matches paper" `Quick
        test_trends_optimal_depth_matches_paper;
      Alcotest.test_case "quadratic branch predictor law" `Quick test_trends_quadratic_law;
      Alcotest.test_case "trajectory shapes" `Quick test_trends_trajectory_shape;
      Alcotest.test_case "trajectory pipeline fill" `Quick test_trajectory_starts_with_fill;
      QCheck_alcotest.to_alcotest prop_steady_ipc_monotone_window;
      QCheck_alcotest.to_alcotest prop_branch_penalty_decreasing_in_burst;
      QCheck_alcotest.to_alcotest prop_icache_penalty_decreases_with_buffer;
      QCheck_alcotest.to_alcotest prop_dcache_penalty_monotone;
      QCheck_alcotest.to_alcotest prop_interval_ipc_increases_with_length;
      QCheck_alcotest.to_alcotest prop_fu_saturation_monotone;
      QCheck_alcotest.to_alcotest prop_cpi_positive;
    ] )
