(* Exactness tests: hand-built traces through the detailed simulator,
   checking cycle-accurate behaviour of each mechanism in isolation. *)

module Config = Fom_uarch.Config
module Machine = Fom_uarch.Machine
module Stats = Fom_uarch.Stats
module Instr = Fom_isa.Instr
module Opclass = Fom_isa.Opclass
module Reg = Fom_isa.Reg
module Hierarchy = Fom_cache.Hierarchy
module Predictor = Fom_branch.Predictor

let ideal = Config.ideal Config.baseline

let alu ?pc ?(deps = [||]) index =
  let pc = Option.value pc ~default:(0x400000 + (4 * index)) in
  Instr.make ~index ~pc ~opclass:Opclass.Alu ~dst:(Reg.of_int ((index mod 31) + 1)) ~deps ()

let run_cycles config gen ~n = (Hand_trace.run config gen ~n).Stats.cycles

let test_pipeline_fill_latency () =
  (* The very first instruction retires after fetch (cycle 0), the
     front-end depth, dispatch, issue, execute (1 cycle) and retire:
     total depth + 3 cycles for the machine as modeled. Check by
     running exactly width instructions. *)
  let c5 = run_cycles (Config.with_depth 5 ideal) alu ~n:4 in
  let c9 = run_cycles (Config.with_depth 9 ideal) alu ~n:4 in
  Alcotest.(check int) "depth shifts start exactly" 4 (c9 - c5)

let test_width_throughput_exact () =
  (* 4000 independent instructions at width 4: pipeline fill plus
     1000 cycles of full-width retirement, within a couple cycles. *)
  let cycles = run_cycles ideal alu ~n:4000 in
  Alcotest.(check bool) (Printf.sprintf "cycles %d in [1000, 1012]" cycles) true
    (cycles >= 1000 && cycles <= 1012)

let test_serial_chain_exact () =
  (* A dependence chain retires one instruction per cycle. *)
  let gen index = alu ~deps:(if index = 0 then [||] else [| index - 1 |]) index in
  let c1000 = run_cycles ideal gen ~n:1000 in
  let c2000 = run_cycles ideal gen ~n:2000 in
  Alcotest.(check int) "one cycle per instruction" 1000 (c2000 - c1000)

let test_mul_chain_exact () =
  (* A multiply chain pays the 3-cycle latency per link. *)
  let gen index =
    Instr.make ~index ~pc:0x400000 ~opclass:Opclass.Mul ~dst:(Reg.of_int 1)
      ~deps:(if index = 0 then [||] else [| index - 1 |])
      ()
  in
  let c100 = run_cycles ideal gen ~n:100 in
  let c200 = run_cycles ideal gen ~n:200 in
  Alcotest.(check int) "three cycles per link" 300 (c200 - c100)

let test_branch_mispredict_penalty_exact () =
  (* One mispredicted branch in independent work: the penalty is the
     resolution wait plus the front-end refill. With an Always_taken
     predictor and one not-taken branch, exactly one misprediction. *)
  let branch_at = 2000 in
  let gen index =
    if index = branch_at then
      Instr.make ~index ~pc:0x400100 ~opclass:Opclass.Branch
        ~ctrl:{ Instr.target = 0x400000; taken = false }
        ()
    else alu index
  in
  let config = Config.with_predictor Predictor.Always_taken ideal in
  let with_misp = Hand_trace.run config gen ~n:6000 in
  Alcotest.(check int) "exactly one misprediction" 1 with_misp.Stats.branch_mispredictions;
  let base = run_cycles ideal alu ~n:6000 in
  let penalty = with_misp.Stats.cycles - base in
  (* Independent work: the window drains at full width (short drain),
     the branch resolves quickly once issued, then a depth-5 refill.
     Expect a penalty within the model's [depth, depth + drain + ramp]
     bracket. *)
  Alcotest.(check bool)
    (Printf.sprintf "penalty %d in [5, 13]" penalty)
    true
    (penalty >= 5 && penalty <= 13)

let test_icache_miss_stall_exact () =
  (* With a never-hitting I-cache line pattern the fetch stalls the
     fill delay once per line. Two lines of instructions: one cold
     miss each. *)
  let config = Config.with_cache Hierarchy.ideal_except_l1i ideal in
  let stats = Hand_trace.run config alu ~n:64 in
  (* 64 sequential instructions, 4 bytes each = 2 lines of 128B: two
     cold misses stall the fetch of retired work (fetch-ahead may
     touch the third line without delaying retirement). *)
  Alcotest.(check bool) "two or three line misses" true
    (stats.Stats.l1i_misses >= 2 && stats.Stats.l1i_misses <= 3);
  let base = run_cycles ideal alu ~n:64 in
  Alcotest.(check int) "16 stall cycles" 16 (stats.Stats.cycles - base)

let test_long_miss_blocks_retirement () =
  (* A long-miss load at the ROB head gates every younger
     instruction: nothing retires during the memory wait. *)
  let gen index =
    if index = 0 then
      Instr.make ~index ~pc:0x400000 ~opclass:Opclass.Load ~dst:(Reg.of_int 1)
        ~mem:0xA000000 ()
    else alu index
  in
  let config = Config.with_cache Hierarchy.fig14 ideal in
  let stats = Hand_trace.run config gen ~n:128 in
  (* The load issues early and waits 200 cycles; the 127 younger
     instructions fill the ROB and retire only after it. *)
  Alcotest.(check int) "one long miss" 1 stats.Stats.long_data_misses;
  Alcotest.(check bool)
    (Printf.sprintf "cycles %d slightly beyond the memory latency" stats.Stats.cycles)
    true
    (stats.Stats.cycles >= 200 && stats.Stats.cycles <= 240)

let test_store_misses_do_not_block () =
  (* The same address stream through stores must cost nothing: write
     buffering absorbs store misses. *)
  let gen kind index =
    if index mod 10 = 0 then
      Instr.make ~index ~pc:0x400000 ~opclass:kind
        ?dst:(if kind = Opclass.Load then Some (Reg.of_int 1) else None)
        ~mem:(0xA000000 + (index * 0x100000))
        ()
    else alu index
  in
  let config = Config.with_cache Hierarchy.fig14 ideal in
  let loads = run_cycles config (gen Opclass.Load) ~n:2000 in
  let stores = run_cycles config (gen Opclass.Store) ~n:2000 in
  let base = run_cycles ideal alu ~n:2000 in
  Alcotest.(check bool) "load misses cost" true (loads > base + 100);
  Alcotest.(check bool) "store misses free" true (stores < base + 20)

let test_window_stat_bounded () =
  let stats = Hand_trace.run Config.baseline alu ~n:10000 in
  Alcotest.(check bool) "window occupancy within size" true
    (stats.Stats.mean_window_occupancy <= 48.0);
  Alcotest.(check bool) "rob occupancy within size" true
    (stats.Stats.mean_rob_occupancy <= 128.0)

(* The randomized machines of the properties below: shape and feature
   set (clusters, FU limits, TLB and fetch buffer, unbounded issue)
   drawn independently. *)
let random_config ~width ~variant ~shape =
  let base =
    {
      Config.baseline with
      Config.width;
      pipeline_depth = 3 + (shape mod 4);
      window_size = [| 16; 32; 48 |].(shape mod 3);
      rob_size = 96 + (32 * (shape mod 3));
    }
  in
  match variant with
  | 0 -> Config.ideal base
  | 1 -> base
  | 2 -> Config.with_clusters 2 base
  | 3 -> Config.with_fu_limits (Fom_isa.Fu_set.make ~alu:2 ~load:1 ~mul:1 ()) base
  | 4 ->
      Config.with_fetch_buffer 16
        (Config.with_dtlb { Fom_cache.Tlb.entries = 16; page_bits = 13; walk_latency = 30 } base)
  | _ -> { (Config.ideal base) with Config.unbounded_issue = true }

(* A recorded run of [config] over [packed] must pass the pipeline
   checker, and recording must not change the statistics. *)
let check_recorded ~case config packed ~n =
  let stats, record = Machine.run_recorded (Machine.create config packed) ~n in
  (match Pipeline_check.check config packed record stats with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" case e);
  Alcotest.(check bool) (case ^ ": recording changes nothing") true
    (stats = Fom_uarch.Simulate.run_packed config packed ~n);
  stats

let prop_pipeline_record_passes_checker =
  (* Every stage cycle of every instruction, the cycle count and the
     occupancy means (exact float equality) re-derived cycle by cycle
     from the record, across randomized workloads, machine shapes and
     feature sets. *)
  QCheck.Test.make ~name:"pipeline record passes the checker" ~count:40
    QCheck.(quad (int_range 0 11) (int_bound 10_000) (int_range 0 5) (int_bound 10_000))
    (fun (workload, seed, variant, shape) ->
      let spec =
        Fom_workloads.Spec2000.with_seed seed
          (List.nth Fom_workloads.Spec2000.all workload)
      in
      let config = random_config ~width:[| 2; 4; 8 |].(shape mod 3) ~variant ~shape in
      let n = 3000 in
      let packed =
        Fom_trace.Packed.of_source
          (Fom_trace.Source.of_program (Fom_trace.Program.generate spec))
          ~n:(n + Config.inflight_span config)
      in
      let case = Printf.sprintf "workload %d seed %d variant %d shape %d" workload seed variant shape in
      ignore (check_recorded ~case config packed ~n);
      true)

(* A fixed grid for the kernel's less travelled paths, each through
   the checker: memory latencies past the 1024-cycle wakeup calendar
   (a long miss re-books from a clamped bucket, across skipped idle
   cycles), and cycle limits just below and at the run's length, where
   a skip must stop at the limit so that the run raises exactly when
   stepping every cycle would. *)
let test_checker_grid () =
  let n = 1000 in
  let machines =
    [
      ("real", Config.baseline);
      ("dc", Config.with_cache Hierarchy.ideal_except_data ideal);
      ( "clustered",
        Config.with_fetch_buffer 16
          (Config.with_dtlb
             { Fom_cache.Tlb.entries = 16; page_bits = 13; walk_latency = 30 }
             (Config.with_fu_limits (Fom_isa.Fu_set.make ~alu:2 ~load:1 ())
                (Config.with_clusters 2 Config.baseline))) );
    ]
  in
  List.iter
    (fun name ->
      let source =
        Fom_trace.Source.of_program
          (Fom_trace.Program.generate (Fom_workloads.Spec2000.find name))
      in
      List.iter
        (fun memory ->
          List.iter
            (fun (label, machine) ->
              let cache = machine.Config.cache in
              let config =
                Config.with_cache
                  { cache with Hierarchy.latencies = { cache.Hierarchy.latencies with memory } }
                  machine
              in
              let case = Printf.sprintf "%s/%s/memory %d" name label memory in
              let packed =
                Fom_trace.Packed.of_source source ~n:(n + Config.inflight_span config)
              in
              let stats = check_recorded ~case config packed ~n in
              (* The run took [cycles] steps, the last at cycle
                 [cycles - 1]: under a limit of [cycles - 1] it returns
                 the same statistics, under [cycles - 2] it raises. *)
              let cycles = stats.Stats.cycles in
              let outcome cycle_limit =
                match Machine.run ~cycle_limit (Machine.create config packed) ~n with
                | stats -> Some stats
                | exception Machine.Cycle_limit_exceeded -> None
              in
              Alcotest.(check bool) (case ^ ": cycle limit met") true
                (outcome (cycles - 1) = Some stats);
              Alcotest.(check bool) (case ^ ": cycle limit exceeded") true
                (outcome (cycles - 2) = None))
            machines)
        [ 200; 1023; 1024; 1500; 3000 ])
    [ "gzip"; "mcf"; "gcc"; "twolf" ]

(* Packing exactly [n + inflight_span] instructions must be enough for
   a run to [n] retirements: replaying a longer packing of the same
   trace gives identical full statistics, at widths 2, 4 and 8. A short
   span makes the exact packing run dry at fetch ([FOM-T132]) on wide
   machines, whose last cycle retires up to [width - 1] past the
   target. *)
let packing_length_invariant (workload, seed, variant, shape) =
  let spec =
    Fom_workloads.Spec2000.with_seed seed (List.nth Fom_workloads.Spec2000.all workload)
  in
  let source = Fom_trace.Source.of_program (Fom_trace.Program.generate spec) in
  let n = 3000 in
  let long = Fom_trace.Packed.of_source source ~n:(n + 8192) in
  List.for_all
    (fun width ->
      let config = random_config ~width ~variant ~shape in
      let exact = Fom_trace.Packed.of_source source ~n:(n + Config.inflight_span config) in
      Fom_uarch.Simulate.run_packed config exact ~n
      = Fom_uarch.Simulate.run_packed config long ~n)
    [ 2; 4; 8 ]

let prop_packing_length_does_not_change_results =
  QCheck.Test.make ~name:"packing length does not change results" ~count:20
    QCheck.(quad (int_range 0 11) (int_bound 10_000) (int_range 0 5) (int_bound 10_000))
    packing_length_invariant

let test_packing_margin_wide_machines () =
  (* Draws of the property above whose width-8 machines retire past
     the target in the last cycle. *)
  List.iter
    (fun ((workload, seed, variant, shape) as case) ->
      Alcotest.(check bool)
        (Printf.sprintf "workload %d seed %d variant %d shape %d" workload seed variant shape)
        true (packing_length_invariant case))
    [ (3, 316, 1, 11); (4, 541, 1, 2); (5, 655, 0, 2); (10, 7148, 0, 8) ]

let test_resumable_runs_compose () =
  (* Two runs of n/2 equal one run of n on the same machine. *)
  let m1 = Hand_trace.machine ideal alu ~n:1000 in
  let first = Machine.run m1 ~n:500 in
  let second = Machine.run m1 ~n:(1000 - first.Stats.instructions) in
  let full = Hand_trace.run ideal alu ~n:1000 in
  Alcotest.(check int) "same total cycles" full.Stats.cycles second.Stats.cycles;
  Alcotest.(check bool) "at least 1000 retired" true (second.Stats.instructions >= 1000)

let test_resumable_packed_runs_compose () =
  (* The ROB and the front-end pipe are index ranges that must carry
     across a [run] boundary: stopping a packed-fed machine part-way and
     resuming it to the same retirement target gives exactly the full
     statistics of one uninterrupted run. *)
  let n = 6000 in
  List.iter
    (fun (name, config) ->
      let program = Fom_trace.Program.generate (Fom_workloads.Spec2000.find name) in
      let packed =
        Fom_trace.Packed.of_source
          (Fom_trace.Source.of_program program)
          ~n:(n + Config.inflight_span config)
      in
      let resumed = Machine.create config packed in
      let first = Machine.run resumed ~n:2500 in
      let second = Machine.run resumed ~n:(n - first.Stats.instructions) in
      let full = Machine.run (Machine.create config packed) ~n in
      Alcotest.(check bool) (name ^ ": resumed run equals one run") true (second = full))
    [
      ("gzip", Config.baseline);
      ("mcf", Config.baseline);
      ( "gcc",
        Config.with_fetch_buffer 16
          (Config.with_dtlb
             { Fom_cache.Tlb.entries = 64; page_bits = 13; walk_latency = 30 }
             (Config.with_clusters 2 Config.baseline)) );
    ]

let test_packed_run_allocation_free () =
  (* The detailed simulator keeps its in-flight state in preallocated
     columns, so a packed run allocates nothing per instruction or per
     cycle. Counting minor words is deterministic on one domain, which
     makes this an exact gate: at most 2 words per instruction over the
     whole run, machine creation included — and for [Simulate.run],
     packing included. *)
  let n = 20_000 in
  let check label f =
    let before = Gc.minor_words () in
    let stats = f () in
    let per_instr = (Gc.minor_words () -. before) /. float_of_int stats.Stats.instructions in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f minor words per instruction <= 2" label per_instr)
      true (per_instr <= 2.0)
  in
  List.iter
    (fun name ->
      let program = Fom_trace.Program.generate (Fom_workloads.Spec2000.find name) in
      List.iter
        (fun (label, config) ->
          let packed =
            Fom_trace.Packed.of_source
              (Fom_trace.Source.of_program program)
              ~n:(n + Config.inflight_span config)
          in
          check (name ^ "/" ^ label ^ " run_packed") (fun () ->
              Fom_uarch.Simulate.run_packed config packed ~n);
          check (name ^ "/" ^ label ^ " run") (fun () ->
              Fom_uarch.Simulate.run config program ~n))
        [ ("ideal", ideal); ("baseline", Config.baseline) ])
    [ "gzip"; "mcf" ]

let suite =
  ( "machine-exactness",
    [
      Alcotest.test_case "pipeline fill latency" `Quick test_pipeline_fill_latency;
      Alcotest.test_case "width throughput" `Quick test_width_throughput_exact;
      Alcotest.test_case "serial chain" `Quick test_serial_chain_exact;
      Alcotest.test_case "mul chain" `Quick test_mul_chain_exact;
      Alcotest.test_case "mispredict penalty bracket" `Quick
        test_branch_mispredict_penalty_exact;
      Alcotest.test_case "icache stall" `Quick test_icache_miss_stall_exact;
      Alcotest.test_case "long miss blocks retirement" `Quick test_long_miss_blocks_retirement;
      Alcotest.test_case "store misses do not block" `Quick test_store_misses_do_not_block;
      Alcotest.test_case "occupancy stats bounded" `Quick test_window_stat_bounded;
      Alcotest.test_case "resumable runs compose" `Quick test_resumable_runs_compose;
      Alcotest.test_case "resumable packed runs compose" `Quick
        test_resumable_packed_runs_compose;
      Alcotest.test_case "packed run allocation-free" `Quick test_packed_run_allocation_free;
      QCheck_alcotest.to_alcotest prop_pipeline_record_passes_checker;
      Alcotest.test_case "pipeline checker: long latencies, cycle limits" `Quick
        test_checker_grid;
      Alcotest.test_case "packing margin covers wide machines" `Quick
        test_packing_margin_wide_machines;
      QCheck_alcotest.to_alcotest prop_packing_length_does_not_change_results;
    ] )
