(* Tests for the Section 7 extensions: data TLB, limited functional
   units, fetch buffers, and the extra predictors. *)

module Config = Fom_uarch.Config
module Stats = Fom_uarch.Stats
module Simulate = Fom_uarch.Simulate
module Tlb = Fom_cache.Tlb
module Fu_set = Fom_isa.Fu_set
module Opclass = Fom_isa.Opclass
module Predictor = Fom_branch.Predictor
module Params = Fom_model.Params
module Cpi = Fom_model.Cpi
module Fu_saturation = Fom_model.Fu_saturation
module Penalties = Fom_model.Penalties
module Iw = Fom_model.Iw_characteristic

let program name = Fom_trace.Program.generate (Fom_workloads.Spec2000.find name)
let mcf = lazy (program "mcf")
let gzip = lazy (program "gzip")
let ideal = Config.ideal Config.baseline

(* --- TLB substrate --- *)

let test_tlb_hits_after_fill () =
  let tlb = Tlb.create { Tlb.entries = 64; page_bits = 13; walk_latency = 30 } in
  Alcotest.(check bool) "cold miss" false (Tlb.access tlb 0x10000);
  Alcotest.(check bool) "page hit" true (Tlb.access tlb 0x10008);
  Alcotest.(check bool) "same page other offset" true (Tlb.access tlb 0x11FF8)

let test_tlb_capacity_eviction () =
  let spec = { Tlb.entries = 4; page_bits = 13; walk_latency = 30 } in
  let tlb = Tlb.create spec in
  let page k = k * 8192 in
  for k = 0 to 4 do
    ignore (Tlb.access tlb (page k))
  done;
  (* Five pages through a 4-entry TLB: page 0 was the LRU victim. *)
  Alcotest.(check bool) "page 0 evicted" false (Tlb.access tlb (page 0));
  Alcotest.(check bool) "page 4 still in" true (Tlb.access tlb (page 4))

let test_tlb_slows_machine () =
  let with_tlb =
    Config.with_dtlb { Tlb.entries = 16; page_bits = 13; walk_latency = 30 } ideal
  in
  let base = Simulate.run ideal (Lazy.force mcf) ~n:30000 in
  let tlbed = Simulate.run with_tlb (Lazy.force mcf) ~n:30000 in
  Alcotest.(check bool) "misses occur" true (tlbed.Stats.dtlb_misses > 0);
  Alcotest.(check bool) "cycles grow" true (tlbed.Stats.cycles > base.Stats.cycles);
  Alcotest.(check int) "no tlb, no misses" 0 base.Stats.dtlb_misses

let test_tlb_model_tracks_sim () =
  (* Model with the TLB term vs simulation with the TLB, everything
     else ideal. *)
  let spec = { Tlb.entries = 16; page_bits = 13; walk_latency = 30 } in
  let p = Lazy.force mcf in
  let n = 100000 in
  let machine = Config.with_dtlb spec ideal in
  let sim = Simulate.run machine p ~n in
  let inputs =
    Fom_analysis.Characterize.inputs ~cache:Fom_cache.Hierarchy.all_ideal
      ~predictor:Predictor.Ideal ~dtlb:spec ~params:Params.baseline p ~n
  in
  let b = Cpi.evaluate { Params.baseline with Params.dtlb_walk = spec.Tlb.walk_latency } inputs in
  Alcotest.(check bool) "model sees tlb misses" true (b.Cpi.dtlb > 0.0);
  (* A 30-cycle walk sits between the regimes the first-order theory
     handles exactly: shorter than a ROB fill (partially absorbed) yet
     serialized along pointer chains. The deliberately simple
     walk-times-group-factor term is checked directionally, within a
     factor of two. *)
  let ratio = Cpi.total b /. Stats.cpi sim in
  Alcotest.(check bool)
    (Printf.sprintf "model %.3f vs sim %.3f ratio %.2f" (Cpi.total b) (Stats.cpi sim) ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

(* --- FU limits --- *)

let mix_of profile cls = Fom_analysis.Profile.class_fraction profile cls

let test_fu_saturation_math () =
  let fu = Fu_set.make ~load:1 () in
  let mix = function Opclass.Load -> 0.25 | _ -> 0.15 in
  Alcotest.(check (float 1e-9)) "bound 4" 4.0 (Fu_saturation.effective_width fu ~mix ~width:100);
  Alcotest.(check (float 1e-9)) "effective width clipped" 4.0
    (Fu_saturation.effective_width fu ~mix ~width:8);
  Alcotest.(check bool) "binding class is load" true
    (Fu_saturation.binding_class fu ~mix = Some Opclass.Load)

let test_fu_unbounded_is_infinite () =
  let mix = fun _ -> 0.1 in
  Alcotest.(check (float 0.0)) "the width binds" 1000.0
    (Fu_saturation.effective_width Fu_set.unbounded ~mix ~width:1000);
  Alcotest.(check bool) "no binding class" true
    (Fu_saturation.binding_class Fu_set.unbounded ~mix = None)

let test_fu_limits_slow_machine () =
  let p = Lazy.force gzip in
  let base = Simulate.run ideal p ~n:30000 in
  let limited = Config.with_fu_limits (Fu_set.make ~alu:1 ~load:1 ()) ideal in
  let slow = Simulate.run limited p ~n:30000 in
  Alcotest.(check bool) "structural hazard costs cycles" true
    (slow.Stats.cycles > base.Stats.cycles)

let test_fu_limits_model_tracks_sim () =
  (* Predicted saturation vs the simulator's ideal IPC under limits. *)
  let p = Lazy.force gzip in
  let n = 50000 in
  let fu = Fu_set.make ~load:1 ~store:1 () in
  let machine = Config.with_fu_limits fu ideal in
  let sim_ipc = Stats.ipc (Simulate.run machine p ~n) in
  let profile =
    let packed = Fom_trace.Packed.of_source (Fom_trace.Source.of_program p) ~n in
    Fom_analysis.Profile.group ~burst_window:48 ~group_window:128 packed
      (Fom_analysis.Profile.replay ~cache:Fom_cache.Hierarchy.all_ideal packed ~n)
  in
  let bound = Fu_saturation.effective_width fu ~mix:(mix_of profile) ~width:4 in
  Alcotest.(check bool)
    (Printf.sprintf "sim %.2f <= bound %.2f" sim_ipc bound)
    true
    (sim_ipc <= bound +. 0.05);
  Alcotest.(check bool) "bound is tight-ish" true (sim_ipc > 0.7 *. bound)

(* --- fetch buffer --- *)

let test_fetch_buffer_hides_imiss () =
  let p = Lazy.force (lazy (program "perlbmk")) in
  let base = Config.with_cache Fom_cache.Hierarchy.ideal_except_l1i ideal in
  let buffered = Config.with_fetch_buffer 32 base in
  let plain = Simulate.run base p ~n:50000 in
  let with_buffer = Simulate.run buffered p ~n:50000 in
  Alcotest.(check bool) "misses occur" true (plain.Stats.l1i_misses > 50);
  Alcotest.(check bool)
    (Printf.sprintf "buffer helps: %d <= %d" with_buffer.Stats.cycles plain.Stats.cycles)
    true
    (with_buffer.Stats.cycles <= plain.Stats.cycles)

let test_fetch_buffer_model_reduces_penalty () =
  let square4 = Iw.make ~alpha:1.0 ~beta:0.5 ~issue_width:4.0 () in
  let transients = Penalties.transients square4 Params.baseline in
  let plain = Penalties.icache_miss transients Params.baseline ~delay:8 in
  let buffered =
    Penalties.icache_miss transients { Params.baseline with Params.fetch_buffer = 16 } ~delay:8
  in
  Alcotest.(check (float 1e-9)) "covers buffer/width cycles" (plain -. 4.0) buffered

(* --- partitioned issue windows --- *)

let test_clusters_one_is_unified () =
  (* clusters = 1 must be bit-identical to the unified machine. *)
  let p = Lazy.force gzip in
  let unified = Simulate.run Config.baseline p ~n:20000 in
  let one = Simulate.run (Config.with_clusters 1 Config.baseline) p ~n:20000 in
  Alcotest.(check int) "same cycles" unified.Stats.cycles one.Stats.cycles

let test_clusters_degrade_monotonically () =
  let p = Lazy.force gzip in
  let ipc clusters =
    Stats.ipc (Simulate.run (Config.with_clusters clusters ideal) p ~n:30000)
  in
  let i1 = ipc 1 and i2 = ipc 2 and i4 = ipc 4 in
  Alcotest.(check bool)
    (Printf.sprintf "bypass costs: %.2f >= %.2f >= %.2f" i1 i2 i4)
    true
    (i1 >= i2 -. 0.01 && i2 >= i4 -. 0.01);
  Alcotest.(check bool) "4 clusters visibly slower" true (i4 < i1 -. 0.1)

let test_clustering_model_latency () =
  let base = Iw.make ~alpha:1.0 ~beta:0.5 ~issue_width:4.0 () in
  let shift clusters =
    (Fom_model.Clustering.effective_characteristic ~clusters base).Iw.avg_latency
    -. base.Iw.avg_latency
  in
  Alcotest.(check (float 1e-9)) "3/4 of a bypass cycle" 0.75 (shift 4);
  Alcotest.(check (float 1e-9)) "unified is free" 0.0 (shift 1);
  let clustered = Fom_model.Clustering.effective_characteristic ~clusters:2 base in
  Alcotest.(check bool) "steady ipc drops when unsaturated" true
    (Iw.steady_state_ipc clustered ~window:8 < Iw.steady_state_ipc base ~window:8)

let suite =
  ( "extensions",
    [
      Alcotest.test_case "tlb hits after fill" `Quick test_tlb_hits_after_fill;
      Alcotest.test_case "tlb capacity eviction" `Quick test_tlb_capacity_eviction;
      Alcotest.test_case "tlb slows machine" `Quick test_tlb_slows_machine;
      Alcotest.test_case "tlb model tracks sim" `Slow test_tlb_model_tracks_sim;
      Alcotest.test_case "fu saturation math" `Quick test_fu_saturation_math;
      Alcotest.test_case "fu unbounded" `Quick test_fu_unbounded_is_infinite;
      Alcotest.test_case "fu limits slow machine" `Quick test_fu_limits_slow_machine;
      Alcotest.test_case "fu model tracks sim" `Quick test_fu_limits_model_tracks_sim;
      Alcotest.test_case "clusters=1 is unified" `Quick test_clusters_one_is_unified;
      Alcotest.test_case "clusters degrade monotonically" `Quick
        test_clusters_degrade_monotonically;
      Alcotest.test_case "clustering model latency" `Quick test_clustering_model_latency;
      Alcotest.test_case "fetch buffer hides imiss" `Quick test_fetch_buffer_hides_imiss;
      Alcotest.test_case "fetch buffer model" `Quick test_fetch_buffer_model_reduces_penalty;
    ] )
