(* Tests for Fom_trace: address generators, branch behaviours, program
   generation and the dynamic stream. *)

module Rng = Fom_util.Rng
module Address_gen = Fom_trace.Address_gen
module Branch_behavior = Fom_trace.Branch_behavior
module Config = Fom_trace.Config
module Program = Fom_trace.Program
module Stream = Fom_trace.Stream
module Instr = Fom_isa.Instr
module Opclass = Fom_isa.Opclass

let gzip () = Fom_workloads.Spec2000.find "gzip"

(* The first [n] instructions of a fresh stream, one at a time or
   materialized. *)
let iter program ~n f =
  let t = Stream.create program in
  for _ = 1 to n do
    f (Stream.next t)
  done

let collect program ~n =
  let t = Stream.create program in
  Array.init n (fun _ -> Stream.next t)
let region = { Address_gen.base = 0x1000; size = 4096 }

let test_stride_walks_region () =
  let g = Address_gen.create (Address_gen.Stride { stride = 64 }) region in
  let a0 = Address_gen.next g and a1 = Address_gen.next g in
  Alcotest.(check int) "first" 0x1000 a0;
  Alcotest.(check int) "second" 0x1040 a1

let test_stride_wraps () =
  let g = Address_gen.create (Address_gen.Stride { stride = 1024 }) region in
  let addrs = List.init 5 (fun _ -> Address_gen.next g) in
  Alcotest.(check int) "wraps to base" 0x1000 (List.nth addrs 4)

let test_random_in_region () =
  let rng = Rng.create 11 in
  let g = Address_gen.create ~seed_rng:rng Address_gen.Random region in
  for _ = 1 to 1000 do
    let a = Address_gen.next g in
    Alcotest.(check bool) "inside" true (a >= region.base && a < region.base + region.size);
    Alcotest.(check int) "aligned" 0 (a land 7)
  done

let test_chase_flag () =
  let g = Address_gen.create Address_gen.Chase region in
  Alcotest.(check bool) "chase" true (Address_gen.is_chase g);
  let g = Address_gen.create Address_gen.Random region in
  Alcotest.(check bool) "not chase" false (Address_gen.is_chase g)

let test_loop_behavior () =
  let b = Branch_behavior.create (Branch_behavior.Loop 4) in
  let outcomes = List.init 8 (fun _ -> Branch_behavior.next b) in
  Alcotest.(check (list bool)) "3 taken then exit, repeating"
    [ true; true; true; false; true; true; true; false ]
    outcomes

let test_pattern_behavior () =
  let pattern = [| true; false; false |] in
  let b = Branch_behavior.create (Branch_behavior.Pattern pattern) in
  let outcomes = List.init 6 (fun _ -> Branch_behavior.next b) in
  Alcotest.(check (list bool)) "periodic" [ true; false; false; true; false; false ] outcomes

let test_biased_behavior_rate () =
  let rng = Rng.create 13 in
  let b = Branch_behavior.create ~seed_rng:rng (Branch_behavior.Biased 0.9) in
  let taken = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Branch_behavior.next b then incr taken
  done;
  Alcotest.(check (float 0.02)) "rate" 0.9 (float_of_int !taken /. float_of_int n)

let test_expected_taken_rate () =
  Alcotest.(check (float 1e-9)) "loop 4" 0.75
    (Branch_behavior.expected_taken_rate (Branch_behavior.Loop 4));
  Alcotest.(check (float 1e-9)) "pattern" (2.0 /. 3.0)
    (Branch_behavior.expected_taken_rate
       (Branch_behavior.Pattern [| true; true; false |]))

let test_program_generation_deterministic () =
  let p1 = Program.generate (gzip ()) and p2 = Program.generate (gzip ()) in
  Alcotest.(check int) "same static count" (Program.static_count p1) (Program.static_count p2);
  let t1 = collect p1 ~n:1000 and t2 = collect p2 ~n:1000 in
  Array.iteri
    (fun i (a : Instr.t) ->
      let b = t2.(i) in
      Alcotest.(check int) "same pc" a.Instr.pc b.Instr.pc;
      Alcotest.(check bool) "same class" true (a.Instr.opclass = b.Instr.opclass))
    t1

let test_program_structure () =
  let config = gzip () in
  let p = Program.generate config in
  Alcotest.(check bool) "has blocks" true (Array.length p.Program.blocks > 0);
  Array.iter
    (fun (b : Program.block) ->
      Alcotest.(check bool) "non-empty block" true (b.Program.len >= 2);
      let term = p.Program.statics.(b.Program.first + b.Program.len - 1) in
      Alcotest.(check bool) "terminator is control" true (Opclass.is_control term.Program.opclass))
    p.Program.blocks

let test_block_of_uid () =
  let p = Program.generate (gzip ()) in
  Array.iteri
    (fun id (b : Program.block) ->
      Alcotest.(check int) "first maps to id" id (Program.block_of_uid p b.Program.first);
      Alcotest.(check int) "last maps to id" id
        (Program.block_of_uid p (b.Program.first + b.Program.len - 1)))
    p.Program.blocks

let test_stream_indices_sequential () =
  let p = Program.generate (gzip ()) in
  let trace = collect p ~n:500 in
  Array.iteri (fun i (ins : Instr.t) -> Alcotest.(check int) "index" i ins.Instr.index) trace

let test_stream_deps_precede () =
  let p = Program.generate (Fom_workloads.Spec2000.find "mcf") in
  iter p ~n:20000 (fun ins ->
      Array.iter
        (fun d ->
          if not (d >= 0 && d < ins.Instr.index) then
            Alcotest.failf "dep %d not before instr %d" d ins.Instr.index)
        ins.Instr.deps)

let test_stream_mix_matches_config () =
  let config = gzip () in
  let p = Program.generate config in
  let n = 200000 in
  let loads = ref 0 and branches = ref 0 and stores = ref 0 in
  iter p ~n (fun ins ->
      match ins.Instr.opclass with
      | Opclass.Load -> incr loads
      | Opclass.Store -> incr stores
      | Opclass.Branch -> incr branches
      | _ -> ());
  let frac r = float_of_int !r /. float_of_int n in
  (* Block-structured sampling reproduces the mix only approximately. *)
  Alcotest.(check (float 0.05)) "load frac" config.Config.mix.Config.load (frac loads);
  Alcotest.(check (float 0.05)) "store frac" config.Config.mix.Config.store (frac stores);
  Alcotest.(check (float 0.05)) "branch frac" config.Config.mix.Config.branch (frac branches)

let test_stream_branches_have_ctrl () =
  let p = Program.generate (gzip ()) in
  iter p ~n:5000 (fun ins ->
      if Opclass.is_control ins.Instr.opclass then
        Alcotest.(check bool) "ctrl present" true (Option.is_some ins.Instr.ctrl)
      else Alcotest.(check bool) "ctrl absent" true (Option.is_none ins.Instr.ctrl))

let test_stream_memory_ops_have_addresses () =
  let p = Program.generate (Fom_workloads.Spec2000.find "mcf") in
  iter p ~n:5000 (fun ins ->
      Alcotest.(check bool) "mem iff memory op" true
        (Option.is_some ins.Instr.mem = Fom_isa.Opclass.is_memory ins.Instr.opclass))

let test_chase_loads_serialized () =
  (* In mcf, chase loads must depend on their previous dynamic instance. *)
  let p = Program.generate (Fom_workloads.Spec2000.find "mcf") in
  let last_by_pc = Hashtbl.create 64 in
  let found_chain = ref false in
  iter p ~n:50000 (fun ins ->
      if ins.Instr.opclass = Opclass.Load then begin
        (match Hashtbl.find_opt last_by_pc ins.Instr.pc with
        | Some prev when Array.exists (fun d -> d = prev) ins.Instr.deps -> found_chain := true
        | _ -> ());
        Hashtbl.replace last_by_pc ins.Instr.pc ins.Instr.index
      end);
  Alcotest.(check bool) "found at least one load-load chain" true !found_chain

let test_all_workloads_generate () =
  List.iter
    (fun config ->
      let p = Program.generate config in
      let trace = collect p ~n:2000 in
      Alcotest.(check int) "trace length" 2000 (Array.length trace))
    Fom_workloads.Spec2000.all

let test_workload_lookup () =
  Alcotest.(check int) "12 presets" 12 (List.length Fom_workloads.Spec2000.all);
  List.iter
    (fun name ->
      let c = Fom_workloads.Spec2000.find name in
      Alcotest.(check string) "name matches" name c.Config.name)
    Fom_workloads.Spec2000.names

let test_with_seed () =
  let c = Fom_workloads.Spec2000.with_seed 999 (gzip ()) in
  Alcotest.(check int) "seed replaced" 999 c.Config.seed

let test_interleaved_streams_independent () =
  (* Two streams over the same program carry independent state:
     interleaving their consumption must not change what either
     produces. *)
  let p = Program.generate (gzip ()) in
  let reference = collect p ~n:400 in
  let s1 = Stream.create p and s2 = Stream.create p in
  for i = 0 to 399 do
    let a = Stream.next s1 in
    let b = Stream.next s2 in
    Alcotest.(check int) "s1 matches" reference.(i).Instr.pc a.Instr.pc;
    Alcotest.(check int) "s2 matches" reference.(i).Instr.pc b.Instr.pc
  done

let test_pcs_within_footprint () =
  let p = Program.generate (Fom_workloads.Spec2000.find "vortex") in
  let hi = Program.code_base + Program.footprint_bytes p in
  iter p ~n:20000 (fun ins ->
      if ins.Instr.pc < Program.code_base || ins.Instr.pc >= hi then
        Alcotest.failf "pc 0x%x outside footprint" ins.Instr.pc)

let test_full_block_coverage_small_program () =
  (* A small program's walk must reach every block within a modest
     horizon (the call-return structure guarantees progress). *)
  let p = Program.generate (gzip ()) in
  let blocks = Array.length p.Program.blocks in
  let seen = Array.make blocks false in
  iter p ~n:100000 (fun ins ->
      seen.(Program.block_of_uid p ((ins.Instr.pc - Program.code_base) / 4)) <- true);
  Array.iteri
    (fun i visited -> if not visited then Alcotest.failf "block %d never visited" i)
    seen

let test_single_chain_chase () =
  (* chase_chains = 1: every chase load (bar the first) depends on the
     immediately preceding chase load, regardless of its pc. *)
  let p =
    Program.generate
      (List.find (fun c -> c.Config.name = "pointer-chase") Fom_workloads.Micro.all)
  in
  let last_chase = ref (-1) in
  iter p ~n:20000 (fun ins ->
      if ins.Instr.opclass = Opclass.Load then begin
        (if !last_chase >= 0 then
           match ins.Instr.deps with
           | [| d |] when d = !last_chase -> ()
           | deps ->
               Alcotest.failf "load #%d deps %s, expected [%d]" ins.Instr.index
                 (String.concat ";" (Array.to_list (Array.map string_of_int deps)))
                 !last_chase);
        last_chase := ins.Instr.index
      end)

let prop_stream_deterministic =
  QCheck.Test.make ~name:"stream is deterministic per seed" ~count:10
    QCheck.(int_range 1 1000)
    (fun seed ->
      let config = Fom_workloads.Spec2000.with_seed seed (gzip ()) in
      let p = Program.generate config in
      let a = collect p ~n:200 and b = collect p ~n:200 in
      Array.for_all2
        (fun (x : Instr.t) (y : Instr.t) ->
          x.Instr.pc = y.Instr.pc && x.Instr.mem = y.Instr.mem && x.Instr.deps = y.Instr.deps)
        a b)

let suite =
  ( "trace",
    [
      Alcotest.test_case "stride walks region" `Quick test_stride_walks_region;
      Alcotest.test_case "stride wraps" `Quick test_stride_wraps;
      Alcotest.test_case "random in region" `Quick test_random_in_region;
      Alcotest.test_case "chase flag" `Quick test_chase_flag;
      Alcotest.test_case "loop behaviour" `Quick test_loop_behavior;
      Alcotest.test_case "pattern behaviour" `Quick test_pattern_behavior;
      Alcotest.test_case "biased rate" `Quick test_biased_behavior_rate;
      Alcotest.test_case "expected taken rate" `Quick test_expected_taken_rate;
      Alcotest.test_case "program deterministic" `Quick test_program_generation_deterministic;
      Alcotest.test_case "program structure" `Quick test_program_structure;
      Alcotest.test_case "block of uid" `Quick test_block_of_uid;
      Alcotest.test_case "stream indices" `Quick test_stream_indices_sequential;
      Alcotest.test_case "deps precede instruction" `Quick test_stream_deps_precede;
      Alcotest.test_case "mix matches config" `Quick test_stream_mix_matches_config;
      Alcotest.test_case "control has ctrl info" `Quick test_stream_branches_have_ctrl;
      Alcotest.test_case "memory ops have addresses" `Quick test_stream_memory_ops_have_addresses;
      Alcotest.test_case "chase loads serialized" `Quick test_chase_loads_serialized;
      Alcotest.test_case "all workloads generate" `Quick test_all_workloads_generate;
      Alcotest.test_case "workload lookup" `Quick test_workload_lookup;
      Alcotest.test_case "with seed" `Quick test_with_seed;
      Alcotest.test_case "interleaved streams independent" `Quick
        test_interleaved_streams_independent;
      Alcotest.test_case "pcs within footprint" `Quick test_pcs_within_footprint;
      Alcotest.test_case "full block coverage" `Quick test_full_block_coverage_small_program;
      Alcotest.test_case "single-chain chase" `Quick test_single_chain_chase;
      QCheck_alcotest.to_alcotest prop_stream_deterministic;
    ] )
