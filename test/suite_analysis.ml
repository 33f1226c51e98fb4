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
let pack program ~n =
  Fom_trace.Packed.of_source (Fom_trace.Source.of_program program) ~n

(* The library's profile of the first [n] instructions of [packed]
   for the baseline machine's issue window (48) and ROB (128): its
   replay, then its grouping. *)
let profile ?cache ?predictor ?dtlb ?grouping packed ~n =
  Profile.group ?grouping ~burst_window:48 ~group_window:128 packed
    (Profile.replay ?cache ?predictor ?dtlb packed ~n)

let gzip = lazy (program "gzip")
let mcf = lazy (program "mcf")
let vpr = lazy (program "vpr")
let vortex = lazy (program "vortex")

(* The IW kernel over an exact [n + window] packing of [program]. *)
let iw_ipc ?latencies ?issue_limit program ~window ~n =
  let packed =
    Fom_trace.Packed.of_source (Fom_trace.Source.of_program program) ~n:(n + window)
  in
  Iw_sim.ipc_of_packed ?latencies ?issue_limit packed ~window ~n

let test_iw_sim_monotone_in_window () =
  let p = Lazy.force gzip in
  let i4 = iw_ipc p ~window:4 ~n:20000 in
  let i32 = iw_ipc p ~window:32 ~n:20000 in
  let i256 = iw_ipc p ~window:256 ~n:20000 in
  Alcotest.(check bool) "4 < 32" true (i4 < i32);
  Alcotest.(check bool) "32 < 256" true (i32 < i256)

let test_iw_sim_window_one () =
  (* A one-entry window is strictly in-order scalar issue: IPC 1 under
     unit latency. *)
  let ipc = iw_ipc (Lazy.force gzip) ~window:1 ~n:5000 in
  Alcotest.(check (float 0.01)) "ipc 1" 1.0 ipc

let test_iw_sim_issue_limit_caps () =
  let p = Lazy.force gzip in
  let unlimited = iw_ipc p ~window:128 ~n:20000 in
  let limited = iw_ipc p ~window:128 ~n:20000 ~issue_limit:2 in
  Alcotest.(check bool) "capped at 2" true (limited <= 2.0 +. 1e-9);
  Alcotest.(check bool) "unlimited higher" true (unlimited > limited)

let test_iw_sim_latency_littles_law () =
  (* Doubling every latency should roughly halve the issue rate at a
     fixed window (the paper's Little's-law argument). *)
  let p = Lazy.force gzip in
  let unit = iw_ipc p ~window:64 ~n:20000 in
  let doubled =
    iw_ipc p ~window:64 ~n:20000
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
  let curve =
    Iw_curve.measure_packed ~n:5000 ~windows:[ 16; 4; 64 ] (pack (Lazy.force gzip) ~n:(5000 + 64))
  in
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
  let packed = pack (Lazy.force mcf) ~n:30000 in
  let prof = profile ~cache:Hierarchy.all_ideal packed ~n:30000 in
  Alcotest.(check int) "no long misses" 0 prof.Profile.long_misses;
  Alcotest.(check int) "no short misses" 0 prof.Profile.short_misses;
  Alcotest.(check int) "no l1i misses" 0 prof.Profile.l1i_misses

let test_profile_ideal_predictor_no_mispredictions () =
  let packed = pack (Lazy.force gzip) ~n:30000 in
  let prof = profile ~predictor:Predictor.Ideal packed ~n:30000 in
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
  let packed = pack p ~n:50000 in
  let aware = profile ~grouping:Profile.Dependence_aware packed ~n:50000 in
  let naive = profile ~grouping:Profile.Paper_naive packed ~n:50000 in
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

(* Digest of every field of the two-stage profile over one packing, at
   the baseline and Figure 14 caches, without and with a 64-entry dTLB
   and under both groupings: the float mean latency by its bits, the
   distributions by their (size, count) lists. *)
let profile_digest packed ~n =
  let b = Buffer.create 4096 in
  let dist d =
    String.concat " "
      (List.map (fun (size, count) -> Printf.sprintf "%d:%d" size count) (Distribution.to_list d))
  in
  List.iter
    (fun cache ->
      List.iter
        (fun dtlb ->
          List.iter
            (fun grouping ->
              let p = profile ~cache ?dtlb ~grouping packed ~n in
              Buffer.add_string b
                (Printf.sprintf "%d %Ld [%s] %d %d %d %d %d %d %d | %s | %s | %s\n"
                   p.Profile.instructions
                   (Int64.bits_of_float p.Profile.avg_latency)
                   (String.concat " " (List.map (fun (_, c) -> string_of_int c) p.Profile.class_counts))
                   p.Profile.branches p.Profile.mispredictions p.Profile.l1i_misses
                   p.Profile.l2i_misses p.Profile.short_misses p.Profile.long_misses
                   p.Profile.dtlb_misses (dist p.Profile.mispred_bursts)
                   (dist p.Profile.long_miss_groups) (dist p.Profile.dtlb_groups)))
            [ Profile.Dependence_aware; Profile.Paper_naive ])
        [ None; Some { Fom_cache.Tlb.entries = 64; page_bits = 13; walk_latency = 30 } ])
    [ Hierarchy.baseline; Hierarchy.fig14 ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_profile_golden () =
  (* Pinned digests: the model's inputs descend from these profiles,
     so the profile loop must not move any field by a single bit. *)
  let n = 20_000 in
  List.iter2
    (fun config expected ->
      let packed =
        Fom_trace.Packed.of_source
          (Fom_trace.Source.of_program (Fom_trace.Program.generate config))
          ~n
      in
      Alcotest.(check string) config.Fom_trace.Config.name expected (profile_digest packed ~n))
    Fom_workloads.Spec2000.all
    [
      "3e48f256d7d21cf933c310f9251cea0f";
      "00b77df846171de42806cd565388809d";
      "5ab2b62a1428aa39cb6456783cc602c2";
      "b64a440286cb96493db2cd82d0450661";
      "154998673f9092c720f20ac6368688a0";
      "426a44968fde80b548f6bba3e3e5ba61";
      "ad3cec8027f8fa03a20026907f5e6968";
      "98e19bf93b9fefaade977bcedb4034b7";
      "f08f254edb6574907a79f159a15980ac";
      "948e082326b1896897e50ee39e9df3d9";
      "326af3c546c403497bcbf592b73fb75a";
      "cc9b74ea4dee63dee567c2a68820d06a";
    ]

let test_iw_sim_agrees_with_machine () =
  (* Two independent implementations of the idealized window-limited
     machine: the lean dataflow simulation and the full cycle-level
     simulator configured to the same idealization (unit latencies,
     an issue width no window reaches, instant-ish front end, huge
     ROB). Their IPCs must agree closely. *)
  let p = Lazy.force gzip in
  List.iter
    (fun window ->
      let lean = iw_ipc p ~window ~n:20000 in
      let config =
        {
          (Fom_uarch.Config.ideal Fom_uarch.Config.baseline) with
          Fom_uarch.Config.width = 512;
          pipeline_depth = 1;
          window_size = window;
          rob_size = 65536;
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
     Spec2000 and micro presets at random seeds, windows 1-280, issue
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
        Fom_trace.Source.of_program
          (Fom_trace.Program.generate (Fom_workloads.Spec2000.with_seed seed presets.(preset)))
      in
      let issue_limit = if limit_sel = 0 then None else Some limit_sel in
      kernel_matches_oracle ?issue_limit ~latencies:(latency_table latency_sel seed) source
        ~window ~n:2000)

(* Inputs as plain data: the three distributions through their
   (size, count) lists, so that equal contents compare equal. *)
let inputs_data (i : Inputs.t) =
  let empty = Distribution.create () in
  ( { i with Inputs.mispred_bursts = empty; long_miss_groups = empty; dtlb_groups = empty },
    List.map Distribution.to_list [ i.mispred_bursts; i.long_miss_groups; i.dtlb_groups ] )

let prop_results_independent_of_packing_length =
  (* A harness shares one packing, longer than any single pass needs,
     across every analysis of a benchmark. Characterization (with a
     data TLB) and the IW kernel must not see the extra instructions:
     the results on an exact packing and on one 8192 longer are
     equal. *)
  QCheck.Test.make ~name:"analysis results do not depend on packing length" ~count:12
    QCheck.(
      triple
        (int_bound (List.length Fom_workloads.Spec2000.all - 1))
        (int_bound 100_000) (int_range 1 256))
    (fun (preset, seed, window) ->
      let config = { (List.nth Fom_workloads.Spec2000.all preset) with Fom_trace.Config.seed } in
      let program = Fom_trace.Program.generate config in
      let n = 3000 and iw_instructions = 2000 in
      let dtlb = { Fom_cache.Tlb.entries = 16; page_bits = 12; walk_latency = 30 } in
      let longer =
        Fom_trace.Packed.of_source (Fom_trace.Source.of_program program) ~n:(n + window + 8192)
      in
      let exact = Characterize.inputs ~dtlb ~iw_instructions ~params:Params.baseline program ~n in
      let _, _, shared =
        Fom_exec.Pool.with_pool ~jobs:2 (fun pool ->
            Characterize.curve_and_inputs_of_packed ~pool ~dtlb ~iw_instructions
              ~params:Params.baseline longer ~n)
      in
      compare (inputs_data exact) (inputs_data shared) = 0
      && Float.equal (iw_ipc program ~window ~n) (Iw_sim.ipc_of_packed longer ~window ~n))

(* A profile as plain data: the mean latency by its bits, the
   distributions by their (size, count) lists. *)
let profile_data (p : Profile.t) =
  let d = Distribution.to_list in
  ( ( p.Profile.instructions,
      p.Profile.class_counts,
      Int64.bits_of_float p.Profile.avg_latency,
      p.Profile.branches,
      p.Profile.mispredictions,
      d p.Profile.mispred_bursts ),
    (p.Profile.l1i_misses, p.Profile.l2i_misses, p.Profile.short_misses, p.Profile.long_misses),
    (d p.Profile.long_miss_groups, p.Profile.dtlb_misses, d p.Profile.dtlb_groups) )

let prop_two_stage_profile_matches_oracle =
  (* The replay and grouping stages derive every field the one-pass
     oracle does, bit for bit: Spec2000 and micro presets at random
     seeds; baseline, Figure 14, ideal-except-data and all-ideal
     caches; three predictors; no dTLB or an 8-entry one; both
     groupings; burst and group windows 1-512 (taint scans from a
     leader up to its whole window); 1-5000 instructions. *)
  let caches =
    [| Hierarchy.baseline; Hierarchy.fig14; Hierarchy.ideal_except_data; Hierarchy.all_ideal |]
  in
  let predictors = [| Predictor.default_spec; Predictor.Bimodal 10; Predictor.Always_taken |] in
  QCheck.Test.make ~name:"two-stage profile equals the one-pass oracle" ~count:60
    QCheck.(
      pair
        (quad (int_bound (Array.length presets - 1)) (int_bound 100_000) (int_range 1 5000)
           (int_bound 1_000_000))
        (pair (int_range 1 512) (int_range 1 512)))
    (fun ((preset, seed, n, draw), (burst_window, group_window)) ->
      let source =
        Fom_trace.Source.of_program
          (Fom_trace.Program.generate (Fom_workloads.Spec2000.with_seed seed presets.(preset)))
      in
      let packed = Fom_trace.Packed.of_source source ~n in
      let cache = caches.(draw mod 4) and predictor = predictors.(draw / 4 mod 3) in
      let dtlb =
        if draw / 12 mod 2 = 0 then None
        else Some { Fom_cache.Tlb.entries = 8; page_bits = 12; walk_latency = 30 }
      in
      let grouping = if draw / 24 mod 2 = 0 then Profile.Dependence_aware else Profile.Paper_naive in
      let oracle =
        Profile_oracle.run_packed ~cache ~predictor ~burst_window ~group_window ~grouping ?dtlb
          packed ~n
      in
      let staged =
        Profile.group ~grouping ~burst_window ~group_window packed
          (Profile.replay ~cache ~predictor ?dtlb packed ~n)
      in
      profile_data oracle = profile_data staged)

(* perfbench's design-sweep machine points: two memory systems, four
   window and ROB sizes. *)
let sweep_points =
  List.concat_map
    (fun cache ->
      List.map
        (fun (window_size, rob_size) ->
          (cache, { Params.baseline with Params.window_size; rob_size }))
        [ (32, 64); (48, 128); (64, 128); (128, 256) ])
    [ None; Some Hierarchy.fig14 ]

let iw_points () =
  Option.value (List.assoc_opt "iw.points" (Fom_obs.Metrics.snapshot ()).Fom_obs.Metrics.counters)
    ~default:0

let test_characterize_once_per_packing () =
  (* One packing characterized at every design-sweep point, shuffled
     and concurrently on two domains, gives each point's result over a
     packing of its own while running one IW sweep in all. The shared
     results live only as long as the packing, and outlive the pool
     they were computed on. *)
  let n = 4000 and iw_instructions = 2000 in
  let program = Lazy.force mcf in
  let fresh () = pack program ~n:(n + 256) in
  let characterize ?pool ?(iw_instructions = iw_instructions) (cache, params) packed =
    let _, _, inputs =
      Characterize.curve_and_inputs_of_packed ?pool ~iw_instructions ?cache ~params packed ~n
    in
    inputs_data inputs
  in
  let expected = List.map (fun point -> characterize point (fresh ())) sweep_points in
  let shuffled =
    let rng = Random.State.make [| 27 |] in
    List.map (fun point -> (Random.State.bits rng, point)) (List.combine sweep_points expected)
    |> List.sort compare |> List.map snd
  in
  let finalised = Atomic.make false in
  let[@inline never] characterize_and_drop () =
    let packed = fresh () in
    Gc.finalise (fun _ -> Atomic.set finalised true) packed;
    Fom_obs.Sink.enable ();
    let points =
      Fun.protect ~finally:Fom_obs.Sink.disable (fun () ->
          let before = iw_points () in
          Fom_exec.Pool.with_pool ~jobs:2 ~domains:2 (fun pool ->
              List.iter2
                (fun (_, expected) result ->
                  Alcotest.(check bool) "shared packing, concurrent" true (expected = result))
                shuffled
                (Fom_exec.Pool.map pool
                   ~f:(fun (point, _) -> characterize ~pool point packed)
                   shuffled));
          iw_points () - before)
    in
    Alcotest.(check int) "one IW sweep for the packing" (List.length Iw_curve.default_windows)
      points;
    (* A new pool reads the shared results and computes what is new:
       an IW sweep of another length and a replay of another cache. *)
    let point = (Some Hierarchy.ideal_except_data, Params.baseline) in
    let expected_new = characterize ~iw_instructions:1500 point (fresh ()) in
    Fom_exec.Pool.with_pool ~jobs:2 ~domains:2 (fun pool ->
        List.iter2
          (fun point expected ->
            Alcotest.(check bool) "under a new pool" true
              (expected = characterize ~pool point packed))
          sweep_points expected;
        Alcotest.(check bool) "computed under a new pool" true
          (expected_new = characterize ~pool ~iw_instructions:1500 point packed))
  in
  characterize_and_drop ();
  Gc.full_major ();
  Alcotest.(check bool) "the dropped packing is collected" true (Atomic.get finalised)

let test_live_packings_keep_their_results () =
  (* Two live packings of one trace, with the same label and length,
     each keep their own shared results: characterizing A, then B,
     then each again runs no third IW sweep. *)
  let program = Lazy.force mcf in
  let a = pack program ~n:3000 and b = pack program ~n:3000 in
  let sweeps packed =
    let before = iw_points () in
    ignore
      (Characterize.curve_and_inputs_of_packed ~iw_instructions:1500 ~params:Params.baseline
         packed ~n:2500);
    (iw_points () - before) / List.length Iw_curve.default_windows
  in
  Fom_obs.Sink.enable ();
  let counts =
    Fun.protect ~finally:Fom_obs.Sink.disable (fun () ->
        let first = sweeps a in
        let second = sweeps b in
        let third = sweeps a in
        [ first; second; third; sweeps b ])
  in
  Alcotest.(check (list int)) "sweeps for A, B, A, B" [ 1; 1; 0; 0 ] counts

let test_defaults_key_like_their_values () =
  (* The shared results are keyed by resolved values: an omitted
     argument and its default spelled out are one cell. Four calls on
     one packing, naming the baseline cache and the 30k-instruction
     sweep each way, run one IW sweep and one replay. *)
  let n = 4000 in
  let packed = pack (Lazy.force mcf) ~n:(30_000 + 256) in
  let characterize ?iw_instructions ?cache () =
    let _, _, inputs =
      Characterize.curve_and_inputs_of_packed ?iw_instructions ?cache ~params:Params.baseline
        packed ~n
    in
    inputs_data inputs
  in
  let computes () =
    Option.value ~default:0
      (List.assoc_opt "memo.computes" (Fom_obs.Metrics.snapshot ()).Fom_obs.Metrics.counters)
  in
  Fom_obs.Sink.enable ();
  let points, computed, results =
    Fun.protect ~finally:Fom_obs.Sink.disable (fun () ->
        let points = iw_points () and computed = computes () in
        let results =
          [ characterize ();
            characterize ~cache:Hierarchy.baseline ();
            characterize ~iw_instructions:30_000 ();
            characterize ~iw_instructions:30_000 ~cache:Hierarchy.baseline () ]
        in
        (iw_points () - points, computes () - computed, results))
  in
  Alcotest.(check int) "one IW sweep" (List.length Iw_curve.default_windows) points;
  Alcotest.(check int) "one sweep and one replay computed" 2 computed;
  List.iter
    (fun r -> Alcotest.(check bool) "equal inputs" true (r = List.hd results))
    results

let test_thunk_feed_equals_packed_feed () =
  (* The program-fed entry points equal the same calls over a fresh
     exact-length packing, whether they pack afresh or reuse a longer
     packing of the same source: the first characterization packs, the
     second, the profile and the shorter curve reuse it, the longer
     curve packs again, and the last profile reuses that. *)
  let n = 3000 and iw_instructions = 1500 in
  let margin = List.fold_left Int.max 1 Iw_curve.default_windows in
  let exact source ~n = Fom_trace.Packed.of_source source ~n in
  let params rob_size = { Params.baseline with Params.rob_size } in
  let characterized source rob =
    let packed = exact source ~n:(Int.max n (iw_instructions + margin)) in
    let _, _, inputs =
      Characterize.curve_and_inputs_of_packed ~iw_instructions ~params:(params rob) packed ~n
    in
    inputs_data inputs
  in
  let check what expected got = Alcotest.(check bool) what true (compare expected got = 0) in
  List.iter
    (fun name ->
      let program = program name in
      let source = Fom_trace.Source.of_program program in
      List.iter
        (fun rob ->
          check "Characterize.inputs" (characterized source rob)
            (inputs_data (Characterize.inputs ~iw_instructions ~params:(params rob) program ~n)))
        [ 128; 64 ];
      check "Profile.run" (profile_data (profile (exact source ~n) ~n))
        (profile_data (Profile.run program ~n));
      List.iter
        (fun points ->
          check "Iw_curve.measure"
            (Iw_curve.measure_packed ~n:points (exact source ~n:(points + margin)))
            (Iw_curve.measure ~n:points program))
        [ 2000; 4000 ];
      check "Profile.run after a longer packing" (profile_data (profile (exact source ~n) ~n))
        (profile_data (Profile.run program ~n)))
    [ "gzip"; "mcf" ];
  let schedule =
    Fom_trace.Phases.source
      [
        { Fom_trace.Phases.config = Fom_workloads.Spec2000.find "gzip"; instructions = 1200 };
        { Fom_trace.Phases.config = Fom_workloads.Spec2000.find "mcf"; instructions = 800 };
      ]
  in
  List.iter
    (fun rob ->
      check "Characterize.inputs_of_source" (characterized schedule rob)
        (inputs_data
           (Characterize.inputs_of_source ~iw_instructions ~params:(params rob) schedule ~n)))
    [ 128; 64 ]

let test_thunk_characterizations_share_a_sweep () =
  (* Two program-fed characterizations of one program at different ROB
     sizes share one packing, so they run one IW sweep between them. A
     freshly generated program has no packing yet. *)
  let program = program "vpr" in
  let characterize rob_size =
    ignore
      (Characterize.inputs ~iw_instructions:1500
         ~params:{ Params.baseline with Params.rob_size }
         program ~n:3000)
  in
  Fom_obs.Sink.enable ();
  let points =
    Fun.protect ~finally:Fom_obs.Sink.disable (fun () ->
        let before = iw_points () in
        characterize 128;
        characterize 64;
        iw_points () - before)
  in
  Alcotest.(check int) "one IW sweep" (List.length Iw_curve.default_windows) points

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
    let base = Array.init len (fun index -> Row.of_cursor ~index (Fom_trace.Stream.step stream)) in
    Row.take (Fom_trace.Packed.of_source (Row.source base) ~n:total) ~n:total
  in
  Array.iteri
    (fun i ins ->
      Alcotest.(check bool)
        (Printf.sprintf "decoded instr %d" i)
        true
        (Row.decode packed i = ins))
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
     end: the kernel refuses the limit up front, at every window. *)
  let p = Lazy.force gzip in
  let packed = Fom_trace.Packed.of_source (Fom_trace.Source.of_program p) ~n:200 in
  List.iter
    (fun (issue_limit, window) ->
      expect_code "FOM-I030" (fun () -> Iw_sim.ipc_of_packed ~issue_limit packed ~window ~n:100))
    [ (0, 8); (-1, 8); (0, 1); (-1, 64) ]

(* The three [iw.bound.*] counters after one IPC evaluation. *)
let bound_counts ?issue_limit program ~window ~n =
  Fom_obs.Sink.enable ();
  Fun.protect ~finally:Fom_obs.Sink.disable (fun () ->
      ignore (iw_ipc ?issue_limit program ~window ~n);
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
      Alcotest.test_case "profile unchanged" `Quick test_profile_golden;
      Alcotest.test_case "iw sim agrees with machine" `Quick test_iw_sim_agrees_with_machine;
      QCheck_alcotest.to_alcotest prop_packed_kernel_bit_identical;
      QCheck_alcotest.to_alcotest prop_results_independent_of_packing_length;
      QCheck_alcotest.to_alcotest prop_two_stage_profile_matches_oracle;
      Alcotest.test_case "characterize once per packing" `Quick
        test_characterize_once_per_packing;
      Alcotest.test_case "defaults key like their values" `Quick
        test_defaults_key_like_their_values;
      Alcotest.test_case "live packings keep their results" `Quick
        test_live_packings_keep_their_results;
      Alcotest.test_case "thunk feed equals the packed feed" `Quick
        test_thunk_feed_equals_packed_feed;
      Alcotest.test_case "thunk characterizations share a sweep" `Quick
        test_thunk_characterizations_share_a_sweep;
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
