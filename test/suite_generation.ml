(* Trace generation: exact allocation gates for the generator's hot
   paths, and bit-identity between the three column writers
   (generator, phase schedule, recorded trace) and Stream.next.
   Counting minor words is deterministic on one domain, so every gate
   is exact. *)

module Rng = Fom_util.Rng
module Address_gen = Fom_trace.Address_gen
module Branch_behavior = Fom_trace.Branch_behavior
module Config = Fom_trace.Config
module Program = Fom_trace.Program
module Stream = Fom_trace.Stream
module Source = Fom_trace.Source
module Packed = Fom_trace.Packed
module Phases = Fom_trace.Phases
module Profile = Fom_analysis.Profile

let words_per_call ~calls f =
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let check_zero label f =
  let words = words_per_call ~calls:10_000 f in
  Alcotest.(check (float 0.0)) (label ^ ": minor words per call") 0.0 words

let test_rng_draws_allocation_free () =
  let r = Rng.create 17 in
  check_zero "Rng.int" (fun () -> ignore (Rng.int r 1000));
  check_zero "Rng.bernoulli" (fun () -> ignore (Rng.bernoulli r 0.3));
  check_zero "Rng.geometric" (fun () -> ignore (Rng.geometric r 0.25));
  check_zero "Rng.bool" (fun () -> ignore (Rng.bool r));
  let weights = [| 1.0; 2.0; 0.5 |] in
  check_zero "Rng.categorical" (fun () -> ignore (Rng.categorical r weights))

let test_generators_allocation_free () =
  let seed_rng = Rng.create 23 in
  let region = { Address_gen.base = 0x10000; size = 1 lsl 20 } in
  List.iter
    (fun (label, kind) ->
      let g = Address_gen.create ~seed_rng kind region in
      check_zero ("Address_gen.next " ^ label) (fun () -> ignore (Address_gen.next g)))
    [
      ("stride", Address_gen.Stride { stride = 8 }); ("random", Address_gen.Random);
      ("chase", Address_gen.Chase);
    ];
  List.iter
    (fun (label, kind) ->
      let b = Branch_behavior.create ~seed_rng kind in
      check_zero ("Branch_behavior.next " ^ label) (fun () -> ignore (Branch_behavior.next b)))
    [
      ("biased", Branch_behavior.Biased 0.9); ("chaotic", Branch_behavior.Chaotic 0.5);
      ("loop", Branch_behavior.Loop 7); ("pattern", Branch_behavior.Pattern [| true; false |]);
    ]

let n = 20_000
let program name = Program.generate (Fom_workloads.Spec2000.find name)

let per_instr label ~bound f =
  let before = Gc.minor_words () in
  f ();
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f minor words per instruction <= %g" label words bound)
    true (words <= bound)

let test_generation_allocation_per_instr () =
  List.iter
    (fun name ->
      let p = program name in
      per_instr ("Packed.of_source " ^ name) ~bound:3.0 (fun () ->
          ignore (Packed.of_source (Source.of_program p) ~n));
      let packed = Packed.of_source (Source.of_program p) ~n in
      per_instr ("Profile.run_packed " ^ name) ~bound:1.0 (fun () ->
          ignore (Profile.run_packed packed ~n));
      per_instr ("Iw_sim.ipc " ^ name) ~bound:1.0 (fun () ->
          ignore (Fom_analysis.Iw_sim.ipc p ~window:32 ~n));
      (* The recurrence's arrays are large enough to bypass the minor
         heap, so a run over a pre-built packing allocates ~nothing. *)
      let packed = Packed.of_source (Source.of_program p) ~n:(n + 256) in
      per_instr ("Iw_sim.ipc_of_packed W=32 " ^ name) ~bound:0.05 (fun () ->
          ignore (Fom_analysis.Iw_sim.ipc_of_packed packed ~window:32 ~n));
      per_instr ("Iw_sim.ipc_of_packed W=256 limit 2 " ^ name) ~bound:0.05 (fun () ->
          ignore (Fom_analysis.Iw_sim.ipc_of_packed ~issue_limit:2 packed ~window:256 ~n));
      let stream = Stream.create p in
      per_instr ("Stream.next " ^ name) ~bound:40.0 (fun () ->
          for _ = 1 to n do
            ignore (Stream.next stream)
          done))
    [ "gzip"; "mcf" ];
  (* A phase schedule runs the generator's writer once per activation:
     only the activations' fresh streams allocate. *)
  let schedule =
    Phases.source
      (List.map
         (fun name ->
           { Phases.config = Fom_workloads.Spec2000.find name; instructions = 3000 })
         [ "gzip"; "mcf" ])
  in
  per_instr "Packed.of_source gzip+mcf phases" ~bound:3.0 (fun () ->
      ignore (Packed.of_source schedule ~n))

(* A preset with its dependence, memory and control knobs redrawn:
   covers chase chains, short and long dependence distances, source
   counts and single-region programs (no calls). *)
let random_config (preset, seed, short_p, long_max, nsrc, chains, regions) =
  let presets = Array.of_list (Fom_workloads.Spec2000.all @ Fom_workloads.Micro.all) in
  let base = presets.(preset mod Array.length presets) in
  {
    base with
    Config.seed;
    deps =
      {
        base.Config.deps with
        Config.short_p = float_of_int short_p /. 10.0;
        long_max;
        nsrc_weights = [| float_of_int (nsrc land 1); 1.0; float_of_int (nsrc lsr 1) |];
      };
    memory = { base.Config.memory with Config.chase_chains = chains };
    control = { base.Config.control with Config.regions };
  }

let gen_config =
  QCheck.(
    map random_config
      (tup7 (int_bound 100) (int_bound 100_000) (int_bound 10) (int_range 1 300)
         (int_bound 3) (int_bound 4) (int_range 1 6)))

let columns (p : Packed.t) =
  [ p.Packed.tag; p.pc; p.dst; p.srcs; p.dep_off; p.dep_val; p.mem; p.ctrl ]

let prop_column_writer_matches_generic =
  (* The generator writer steps the stream straight into the columns;
     the recorded-trace writer packs the same walk from decoded
     Instr.t records. All eight columns must agree. *)
  QCheck.Test.make ~name:"column writer matches generic packing" ~count:40
    QCheck.(pair gen_config (int_bound 100_000))
    (fun (config, stream_seed) ->
      let p = Program.generate config in
      let n = 3000 in
      let direct = Packed.of_source (Source.of_program ~seed:stream_seed p) ~n in
      let s = Stream.create ~seed:stream_seed p in
      let recorded =
        Packed.of_source (Source.of_instrs (Array.init n (fun _ -> Stream.next s))) ~n
      in
      columns direct = columns recorded)

let prop_schedule_writer_matches_phases =
  (* Row [i] of a two-phase schedule is row [i - start] of its phase's
     own packing, with dependences re-based to the activation's
     [start]. [n] ends part-way through a third pass, so the rows past
     [schedule_length] restart the first phase's stream. *)
  QCheck.Test.make ~name:"schedule writer matches per-phase packings" ~count:30
    QCheck.(
      quad gen_config gen_config (pair (int_range 1 700) (int_range 1 700)) small_nat)
    (fun (c1, c2, (b1, b2), extra) ->
      let len = b1 + b2 in
      let n = (2 * len) + 1 + (extra mod (len - 1)) in
      let packed =
        Packed.of_source
          (Phases.source
             [
               { Phases.config = c1; instructions = b1 };
               { Phases.config = c2; instructions = b2 };
             ])
          ~n
      in
      let own c b = Packed.of_source (Source.of_program (Program.generate c)) ~n:b in
      let own1 = own c1 b1 and own2 = own c2 b2 in
      List.for_all
        (fun i ->
          let off = i mod len in
          let phase, k = if off < b1 then (own1, off) else (own2, off - b1) in
          let start = i - k in
          let ins = Packed.instr phase k in
          Packed.instr packed i
          = {
              ins with
              Fom_isa.Instr.index = i;
              deps = Array.map (( + ) start) ins.Fom_isa.Instr.deps;
            })
        (List.init n Fun.id))

let test_packed_decodes_to_stream () =
  List.iter
    (fun config ->
      let p = Program.generate config in
      let n = 5000 in
      let packed = Packed.of_source (Source.of_program p) ~n in
      let s = Stream.create p in
      for i = 0 to n - 1 do
        if Packed.instr packed i <> Stream.next s then
          Alcotest.failf "%s: instruction %d decodes differently" config.Config.name i
      done)
    (Fom_workloads.Spec2000.all @ Fom_workloads.Micro.all)

(* Digest of every field of the first [n] generated instructions, in
   the {!Fom_isa.Instr.pp} rendering plus the dependence list. *)
let stream_digest ?seed p ~n =
  let s = Stream.create ?seed p in
  let b = Buffer.create (64 * n) in
  for _ = 1 to n do
    let ins = Stream.next s in
    Buffer.add_string b
      (Format.asprintf "%a <- %s\n" Fom_isa.Instr.pp ins
         (String.concat " " (List.map string_of_int (Array.to_list ins.Fom_isa.Instr.deps))))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_stream_golden () =
  (* Pinned digests: every exhibit descends from these traces, so the
     generator must not move them by a single bit. The second digest
     replays an explicit stream seed. *)
  List.iter
    (fun (config, plain, seeded) ->
      let p = Program.generate config in
      Alcotest.(check string) (config.Config.name ^ " default seed") plain (stream_digest p ~n:5000);
      Alcotest.(check string)
        (config.Config.name ^ " seed 99")
        seeded
        (stream_digest ~seed:99 p ~n:5000))
    [
      ( Fom_workloads.Spec2000.find "gzip",
        "1d1fc5481f40a8e651440412b3e2b8ef",
        "65f4c6623c468e090c2b0ab6a9f2df9b" );
      ( Fom_workloads.Spec2000.find "mcf",
        "1793c22d5c86fa4ca8bb40a0c6548341",
        "83841d453303e6dd589e39761c1acd08" );
      ( List.find (fun c -> c.Config.name = "pointer-chase") Fom_workloads.Micro.all,
        "066150831f4385c4467f3c8fe6df104d",
        "a7ea5bffd8762cb4f8d28a9c749253a3" );
    ]

let suite =
  ( "generation",
    [
      Alcotest.test_case "rng draws allocation-free" `Quick test_rng_draws_allocation_free;
      Alcotest.test_case "address and branch generators allocation-free" `Quick
        test_generators_allocation_free;
      Alcotest.test_case "pack, profile and stream words per instruction" `Quick
        test_generation_allocation_per_instr;
      Alcotest.test_case "generated trace unchanged" `Quick test_stream_golden;
      Alcotest.test_case "packed decodes to Stream.next" `Quick test_packed_decodes_to_stream;
      QCheck_alcotest.to_alcotest prop_column_writer_matches_generic;
      QCheck_alcotest.to_alcotest prop_schedule_writer_matches_phases;
    ] )
