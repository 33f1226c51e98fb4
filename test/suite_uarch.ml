(* Tests for Fom_uarch: machine invariants, idealized behaviour, and
   directional responses to each miss-event knob. *)

module Config = Fom_uarch.Config
module Stats = Fom_uarch.Stats
module Simulate = Fom_uarch.Simulate
module Hierarchy = Fom_cache.Hierarchy
module Predictor = Fom_branch.Predictor
module Instr = Fom_isa.Instr
module Opclass = Fom_isa.Opclass
module Reg = Fom_isa.Reg

let gzip_program = lazy (Fom_trace.Program.generate (Fom_workloads.Spec2000.find "gzip"))
let mcf_program = lazy (Fom_trace.Program.generate (Fom_workloads.Spec2000.find "mcf"))

let alu ~index ?(deps = [||]) () =
  Instr.make ~index ~pc:(0x400000 + (4 * index)) ~opclass:Opclass.Alu
    ~dst:(Reg.of_int ((index mod 31) + 1)) ~deps ()

let ideal_config = Config.ideal Config.baseline

let test_empty_chain_throughput () =
  (* Independent ALU instructions retire at full width. *)
  let filler index = Instr.make ~index ~pc:0x400000 ~opclass:Opclass.Alu ~dst:(Reg.of_int 1) () in
  let stats = Hand_trace.run ideal_config filler ~n:10000 in
  Alcotest.(check bool) "ipc near width" true (Stats.ipc stats > 3.5)

let test_serial_chain_throughput () =
  (* A pure dependence chain cannot exceed IPC 1. *)
  let chain index = alu ~index ~deps:(if index = 0 then [||] else [| index - 1 |]) () in
  let stats = Hand_trace.run ideal_config chain ~n:5000 in
  Alcotest.(check bool) "ipc at most 1" true (Stats.ipc stats <= 1.01);
  Alcotest.(check bool) "ipc near 1" true (Stats.ipc stats > 0.9)

let test_latency_respected () =
  (* A chain of div (latency 12) instructions: IPC about 1/12. *)
  let chain index =
    Instr.make ~index ~pc:0x400000 ~opclass:Opclass.Div ~dst:(Reg.of_int 1)
      ~deps:(if index = 0 then [||] else [| index - 1 |])
      ()
  in
  let stats = Hand_trace.run ideal_config chain ~n:500 in
  Alcotest.(check (float 0.1)) "cpi 12" 12.0 (Stats.cpi stats)

let test_ideal_no_events () =
  let stats = Simulate.run ideal_config (Lazy.force gzip_program) ~n:20000 in
  Alcotest.(check int) "no mispredictions" 0 stats.Stats.branch_mispredictions;
  Alcotest.(check int) "no l1i misses" 0 stats.Stats.l1i_misses;
  Alcotest.(check int) "no long misses" 0 stats.Stats.long_data_misses

let test_ipc_bounded_by_width () =
  List.iter
    (fun width ->
      let config = { ideal_config with Config.width } in
      let stats = Simulate.run config (Lazy.force gzip_program) ~n:20000 in
      Alcotest.(check bool)
        (Printf.sprintf "ipc <= width %d" width)
        true
        (Stats.ipc stats <= float_of_int width +. 1e-9))
    [ 1; 2; 4; 8 ]

let test_wider_is_not_slower () =
  let run width =
    Stats.ipc
      (Simulate.run ({ ideal_config with Config.width }) (Lazy.force gzip_program) ~n:20000)
  in
  Alcotest.(check bool) "width 4 >= width 2" true (run 4 >= run 2 -. 0.01);
  Alcotest.(check bool) "width 2 >= width 1" true (run 2 >= run 1 -. 0.01)

let test_bigger_window_not_slower () =
  let run window_size =
    let config = { ideal_config with Config.window_size; rob_size = 256 } in
    Stats.ipc (Simulate.run config (Lazy.force gzip_program) ~n:20000)
  in
  Alcotest.(check bool) "window 32 >= window 8" true (run 32 >= run 8 -. 0.01)

let test_real_predictor_costs_cycles () =
  let ideal_stats = Simulate.run ideal_config (Lazy.force gzip_program) ~n:30000 in
  let bp_config = Config.with_predictor Predictor.default_spec ideal_config in
  let bp_stats = Simulate.run bp_config (Lazy.force gzip_program) ~n:30000 in
  Alcotest.(check bool) "mispredictions occur" true (bp_stats.Stats.branch_mispredictions > 0);
  Alcotest.(check bool) "misses cost cycles" true
    (bp_stats.Stats.cycles > ideal_stats.Stats.cycles)

let test_real_dcache_costs_cycles () =
  let ideal_stats = Simulate.run ideal_config (Lazy.force mcf_program) ~n:30000 in
  let dc_config = Config.with_cache Hierarchy.ideal_except_data ideal_config in
  let dc_stats = Simulate.run dc_config (Lazy.force mcf_program) ~n:30000 in
  Alcotest.(check bool) "long misses occur" true (dc_stats.Stats.long_data_misses > 0);
  Alcotest.(check bool) "misses cost cycles" true (dc_stats.Stats.cycles > ideal_stats.Stats.cycles)

let test_deeper_pipe_slower_with_mispredictions () =
  let bp_config = Config.with_predictor Predictor.default_spec ideal_config in
  let run depth =
    (Simulate.run (Config.with_depth depth bp_config) (Lazy.force gzip_program) ~n:30000)
      .Stats.cycles
  in
  Alcotest.(check bool) "9 stages slower than 5" true (run 9 > run 5)

let test_deeper_pipe_free_when_ideal () =
  (* With no miss-events the front-end depth only affects the first
     instructions; steady-state cycles should be near identical. *)
  let run depth =
    (Simulate.run (Config.with_depth depth ideal_config) (Lazy.force gzip_program) ~n:30000)
      .Stats.cycles
  in
  let c5 = run 5 and c9 = run 9 in
  Alcotest.(check bool) "within 1 percent" true
    (abs (c9 - c5) < max 1 (c5 / 100))

let test_isolated_long_miss_penalty () =
  (* One long-miss load in otherwise independent work: total time grows
     by about the memory latency (the paper's isolated-miss analysis:
     penalty about delta_D when the load is old). *)
  let mem_latency = 200 in
  let make_trace ~miss index =
    if miss && index = 1000 then
      Instr.make ~index ~pc:0x400000 ~opclass:Opclass.Load ~dst:(Reg.of_int 1) ~mem:0xDEAD000 ()
    else alu ~index ()
  in
  let config = Config.with_cache Hierarchy.fig14 ideal_config in
  let run miss = (Hand_trace.run config (make_trace ~miss) ~n:20000).Stats.cycles in
  let penalty = run true - run false in
  Alcotest.(check bool)
    (Printf.sprintf "penalty %d near %d" penalty mem_latency)
    true
    (penalty > mem_latency - 60 && penalty <= mem_latency + 10)

let test_overlapping_long_misses_share_penalty () =
  (* Two independent long-miss loads within a ROB of each other cost
     about one isolated penalty in total (paper eq. 7). *)
  let make_trace ~misses index =
    if List.mem index misses then
      Instr.make ~index ~pc:0x400000 ~opclass:Opclass.Load ~dst:(Reg.of_int 1)
        ~mem:(0xDEAD000 + (index * 0x100000))
        ()
    else alu ~index ()
  in
  let config = Config.with_cache Hierarchy.fig14 ideal_config in
  let run misses = (Hand_trace.run config (make_trace ~misses) ~n:20000).Stats.cycles in
  let base = run [] in
  let one = run [ 1000 ] - base in
  let two = run [ 1000; 1040 ] - base in
  Alcotest.(check bool)
    (Printf.sprintf "two overlapped (%d) near one isolated (%d)" two one)
    true
    (float_of_int two < 1.3 *. float_of_int one)

let test_far_apart_misses_add () =
  let make_trace ~misses index =
    if List.mem index misses then
      Instr.make ~index ~pc:0x400000 ~opclass:Opclass.Load ~dst:(Reg.of_int 1)
        ~mem:(0xDEAD000 + (index * 0x100000))
        ()
    else alu ~index ()
  in
  let config = Config.with_cache Hierarchy.fig14 ideal_config in
  let run misses = (Hand_trace.run config (make_trace ~misses) ~n:20000).Stats.cycles in
  let base = run [] in
  let one = run [ 1000 ] - base in
  let two = run [ 1000; 8000 ] - base in
  Alcotest.(check bool)
    (Printf.sprintf "far misses add (%d vs 2x%d)" two one)
    true
    (float_of_int two > 1.7 *. float_of_int one)

let test_rob_never_overflows () =
  (* Indirect invariant check: with a tiny ROB the machine still makes
     progress and the occupancy stat stays within the size. *)
  let config = { ideal_config with Config.window_size = 8; rob_size = 16 } in
  let stats = Simulate.run config (Lazy.force mcf_program) ~n:20000 in
  Alcotest.(check bool) "rob occupancy bounded" true (stats.Stats.mean_rob_occupancy <= 16.0);
  Alcotest.(check bool) "window occupancy bounded" true
    (stats.Stats.mean_window_occupancy <= 8.0);
  (* The run stops at the first cycle reaching the target, so a final
     multi-retire cycle may overshoot by at most width - 1. *)
  Alcotest.(check bool) "all retired" true
    (stats.Stats.instructions >= 20000 && stats.Stats.instructions < 20000 + 4)

let test_determinism () =
  let run () = Simulate.run Config.baseline (Lazy.force gzip_program) ~n:20000 in
  let a = run () and b = run () in
  Alcotest.(check int) "same cycles" a.Stats.cycles b.Stats.cycles;
  Alcotest.(check int) "same mispredictions" a.Stats.branch_mispredictions
    b.Stats.branch_mispredictions

let test_unbounded_issue_not_slower () =
  let bounded = Simulate.run ideal_config (Lazy.force gzip_program) ~n:20000 in
  let unbounded =
    Simulate.run { ideal_config with Config.unbounded_issue = true }
      (Lazy.force gzip_program) ~n:20000
  in
  Alcotest.(check bool) "unbounded at least as fast" true
    (unbounded.Stats.cycles <= bounded.Stats.cycles)

let suite =
  ( "uarch",
    [
      Alcotest.test_case "independent work at full width" `Quick test_empty_chain_throughput;
      Alcotest.test_case "serial chain at ipc 1" `Quick test_serial_chain_throughput;
      Alcotest.test_case "latency respected" `Quick test_latency_respected;
      Alcotest.test_case "ideal run has no events" `Quick test_ideal_no_events;
      Alcotest.test_case "ipc bounded by width" `Quick test_ipc_bounded_by_width;
      Alcotest.test_case "wider is not slower" `Quick test_wider_is_not_slower;
      Alcotest.test_case "bigger window not slower" `Quick test_bigger_window_not_slower;
      Alcotest.test_case "real predictor costs cycles" `Quick test_real_predictor_costs_cycles;
      Alcotest.test_case "real dcache costs cycles" `Quick test_real_dcache_costs_cycles;
      Alcotest.test_case "deeper pipe slower with mispredictions" `Quick
        test_deeper_pipe_slower_with_mispredictions;
      Alcotest.test_case "deeper pipe free when ideal" `Quick test_deeper_pipe_free_when_ideal;
      Alcotest.test_case "isolated long miss costs about memory latency" `Quick
        test_isolated_long_miss_penalty;
      Alcotest.test_case "overlapping long misses share penalty" `Quick
        test_overlapping_long_misses_share_penalty;
      Alcotest.test_case "far apart misses add" `Quick test_far_apart_misses_add;
      Alcotest.test_case "tiny rob still progresses" `Quick test_rob_never_overflows;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "unbounded issue not slower" `Quick test_unbounded_issue_not_slower;
    ] )
