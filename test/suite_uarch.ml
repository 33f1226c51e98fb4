(* Tests for Fom_uarch: machine invariants, idealized behaviour, and
   directional responses to each miss-event knob. *)

module Config = Fom_uarch.Config
module Stats = Fom_uarch.Stats
module Simulate = Fom_uarch.Simulate
module Hierarchy = Fom_cache.Hierarchy
module Predictor = Fom_branch.Predictor
module Opclass = Fom_isa.Opclass

let gzip_program = lazy (Fom_trace.Program.generate (Fom_workloads.Spec2000.find "gzip"))
let mcf_program = lazy (Fom_trace.Program.generate (Fom_workloads.Spec2000.find "mcf"))

let alu ~index ?(deps = [||]) () =
  Row.make ~index ~pc:(0x400000 + (4 * index)) ~opclass:Opclass.Alu ~deps ()

let ideal_config = Config.ideal Config.baseline

let test_empty_chain_throughput () =
  (* Independent ALU instructions retire at full width. *)
  let filler index = Row.make ~index ~pc:0x400000 ~opclass:Opclass.Alu () in
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
    Row.make ~index ~pc:0x400000 ~opclass:Opclass.Div
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
      Row.make ~index ~pc:0x400000 ~opclass:Opclass.Load ~mem:0xDEAD000 ()
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
      Row.make ~index ~pc:0x400000 ~opclass:Opclass.Load
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
      Row.make ~index ~pc:0x400000 ~opclass:Opclass.Load
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

let test_long_memory_within_budget () =
  (* A dependent load chain that misses to memory on nearly every
     load spends thousands of cycles per instruction at a 3000-cycle
     memory latency. The default cycle budget comes from the
     configuration's worst case per retirement, so the run completes
     instead of raising Cycle_limit_exceeded. *)
  let chase =
    Fom_trace.Program.generate
      (List.find
         (fun c -> c.Fom_trace.Config.name = "pointer-chase")
         Fom_workloads.Micro.all)
  in
  let cache = Config.baseline.Config.cache in
  let config =
    Config.with_cache
      { cache with Hierarchy.latencies = { cache.Hierarchy.latencies with memory = 3000 } }
      Config.baseline
  in
  let stats = Simulate.run config chase ~n:20000 in
  Alcotest.(check bool)
    (Printf.sprintf "cpi %.1f above the old fixed 250 per instruction" (Stats.cpi stats))
    true
    (Stats.cpi stats > 250.0)

let test_run_rejects_empty_run () =
  match Simulate.run Config.baseline (Lazy.force gzip_program) ~n:0 with
  | _ -> Alcotest.fail "expected FOM-I030"
  | exception Fom_check.Checker.Invalid [ d ] ->
      Alcotest.(check string) "code" "FOM-I030" d.Fom_check.Diagnostic.code;
      Alcotest.(check string) "path" "machine.n" d.Fom_check.Diagnostic.path
  | exception Fom_check.Checker.Invalid _ -> Alcotest.fail "expected one diagnostic"

(* Digests of machine results per preset: the marshalled [Stats.t] of
   [machines] and the pipeline records of [recorded], each run to 20k
   retirements. Values are digested by content, floats by their bits,
   as perfbench digests them. *)
let check_golden ~machines ~recorded expected =
  let n = 20_000 in
  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ])) in
  List.iter2
    (fun config (stats_expected, record_expected) ->
      let packed =
        Fom_trace.Packed.of_source
          (Fom_trace.Source.of_program (Fom_trace.Program.generate config))
          ~n:(n + 8192)
      in
      let name = config.Fom_trace.Config.name in
      Alcotest.(check string) (name ^ " stats") stats_expected
        (digest (List.map (fun m -> Simulate.run_packed m packed ~n) machines));
      Alcotest.(check string) (name ^ " records") record_expected
        (digest
           (List.map
              (fun m -> Fom_uarch.Simulate.run_recorded m packed ~n)
              recorded)))
    Fom_workloads.Spec2000.all expected

(* Pinned before the age-order kernel replaced the event kernel on the
   machines whose timing cannot depend on issue order: per preset, six
   machines' statistics (the five Figure 2 machines and the I-cache
   machine with a 16-entry fetch buffer, so both kernels), and the
   records of the branch-predictor and I-cache machines. *)
let test_machine_golden () =
  let ideal = Config.ideal Config.baseline in
  let ic = Config.with_cache Hierarchy.ideal_except_l1i ideal in
  let bp = Config.with_predictor Predictor.default_spec ideal in
  check_golden
    ~machines:
      [
        ideal;
        bp;
        ic;
        Config.with_cache Hierarchy.ideal_except_data ideal;
        Config.baseline;
        Config.with_fetch_buffer 16 ic;
      ]
    ~recorded:[ bp; ic ]
    [
      ("66adfe03ece892828ab720402c7d4b22", "e5af9c163670b93da8c4885c17bc84fe"); (* bzip2 *)
      ("fb4933f17adae23098013dfa478b9934", "59f6b080074d4b45e569e6817135e0cf"); (* crafty *)
      ("a0929f204dfeb4009e152b46c4fac17a", "f12d4bccadd6bb0429d97ab2844b6880"); (* eon *)
      ("9ea9bb7243440538a626f2793c65a842", "d95437730bf8cf92baf8836e1295d2cb"); (* gap *)
      ("d78c95da4b762184e0a0b08be84247e0", "176294d1e7fe3298ae27eb4028e366c0"); (* gcc *)
      ("ca78913a862936c38834525827bcbb87", "e436848fb5b62a46f5541f8860f888de"); (* gzip *)
      ("6cfc49775b2266320e940058b1163a18", "4466eb88fa68648128aab95efa8fbbc4"); (* mcf *)
      ("d5e90f0063fc6ffd239a026e53882435", "b3617e36d36c1f8c016c11e27bfb1250"); (* parser *)
      ("0590b1d9529c4347121dd0667943c598", "b7a17547608ae570c1fad526072bd1d1"); (* perlbmk *)
      ("6702995905479b6738ff0bbec37a6339", "cf4e34d6c5c133ce20ea5ac707c9b9a6"); (* twolf *)
      ("c56e0a0776d61deca344ddf179fa29f2", "376787635ed5054806356e258a2946cd"); (* vortex *)
      ("99dbdeeee298bfbd059fefd4e5c8e005", "9b3d3ef7dce8054533b40de7e461cf28"); (* vpr *)
    ]

(* Pinned before issue budgets moved to the age-order kernel: per
   preset, the statistics of the three bounded FU sets of the ext-fu
   exhibit and of 2 and 4 clusters, all over an ideal data side, and
   the records of an FU-limited and the 2-cluster machine. *)
let test_budget_golden () =
  let ideal = Config.ideal Config.baseline in
  let fu set = Config.with_fu_limits set ideal in
  let limited = fu (Fom_isa.Fu_set.make ~alu:2 ~load:1 ()) in
  let two = Config.with_clusters 2 ideal in
  check_golden
    ~machines:
      [
        fu (Fom_isa.Fu_set.make ~alu:1 ());
        limited;
        fu (Fom_isa.Fu_set.make ~alu:1 ~load:1 ~store:1 ());
        two;
        Config.with_clusters 4 ideal;
      ]
    ~recorded:[ limited; two ]
    [
      ("e95b103178713eb5b5a58109bad8da89", "f75163c2deaa1ca4d33d17f1f4834eee"); (* bzip2 *)
      ("8e070dc6c549f145e6b9b236171580ed", "479f38d22fab37b54fec16196d7655a8"); (* crafty *)
      ("ae0c4dcb41528ec3c019eff051f6813d", "512dc6129453375162dbc87a711312c3"); (* eon *)
      ("ec1e998012fcbbc8f83f02ae65d7d0c6", "bdce423cc096d260254d159c6371dd91"); (* gap *)
      ("1614fb79f90ea2631a85d78e7da1d760", "27d071fb2465604d99ecea12364bfa11"); (* gcc *)
      ("8e6ddf47aada4ca922ad05af11ca25bf", "e12609e1952bd7ddcf17e7ba16e58797"); (* gzip *)
      ("eac715c3db20b2cddc5c2b3a65f158f5", "b88bbe1663bfa883d7cdc68e1e33086d"); (* mcf *)
      ("bc2a95ce0693f9cd7bf8cc7bee5a8d1f", "f3b5064858f4d6c726596a4b88f280fd"); (* parser *)
      ("8292a7f8436b03d79e3767bf6522d5d8", "4c7723dcd2460546871b9a06db7af146"); (* perlbmk *)
      ("a3bdb619e321495a73cde448de3cb394", "76bd3b29b8ed4348bdc4c676bc551f02"); (* twolf *)
      ("f3b2495456099854e11aa81b8cd81853", "f7b0677823c6737d6b3ed553e181b7af"); (* vortex *)
      ("8ac0725e05731d7b3fad8e8de461928b", "39b8aa69f7126053f628fb8a530ee7c0"); (* vpr *)
    ]

let test_thunk_feed_equals_packed_feed () =
  (* A fetch-buffer sweep that grows the in-flight span and then
     shrinks it, over the thunk feed: each run equals the same run over
     a fresh exact-length packing. The growing runs pack afresh, the
     shrinking ones reuse the longest packing, which the domain's slot
     still holds at the end. *)
  let n = 4000 in
  let machines =
    List.map
      (fun entries -> Config.with_fetch_buffer entries Config.baseline)
      [ 0; 16; 64; 16; 0 ]
    @ [ Config.with_fetch_buffer 16 ideal_config ]
  in
  let longest = List.fold_left (fun m c -> Int.max m (Config.inflight_span c)) 0 machines in
  let schedule =
    Fom_trace.Phases.source
      [
        { Fom_trace.Phases.config = Fom_workloads.Spec2000.find "gzip"; instructions = 1500 };
        { Fom_trace.Phases.config = Fom_workloads.Spec2000.find "mcf"; instructions = 1000 };
      ]
  in
  (* Freshly generated programs, so no earlier packing of them exists. *)
  let program name = Fom_trace.Program.generate (Fom_workloads.Spec2000.find name) in
  let gzip = program "gzip" and mcf = program "mcf" in
  List.iter
    (fun (name, source, simulate) ->
      List.iter
        (fun config ->
          let exact =
            Simulate.run_packed config
              (Fom_trace.Packed.of_source source ~n:(n + Config.inflight_span config))
              ~n
          in
          Alcotest.(check bool) name true (exact = simulate config ~n))
        machines;
      Alcotest.(check int) (name ^ ": the slot holds the longest packing") (n + longest)
        (Fom_trace.Packed.length (Fom_trace.Packed.at_least source ~n:1)))
    [
      ("gzip", Fom_trace.Source.of_program gzip, fun config ~n -> Simulate.run config gzip ~n);
      ("mcf", Fom_trace.Source.of_program mcf, fun config ~n -> Simulate.run config mcf ~n);
      ("gzip-mcf", schedule, fun config ~n -> Simulate.run_source config schedule ~n);
    ]

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
      Alcotest.test_case "long memory latency within the cycle budget" `Quick
        test_long_memory_within_budget;
      Alcotest.test_case "empty run is FOM-I030" `Quick test_run_rejects_empty_run;
      Alcotest.test_case "machine results unchanged" `Quick test_machine_golden;
      Alcotest.test_case "FU-limited and clustered results unchanged" `Quick test_budget_golden;
      Alcotest.test_case "thunk feed equals the packed feed" `Quick
        test_thunk_feed_equals_packed_feed;
    ] )
