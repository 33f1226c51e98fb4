(* Trace generation: exact allocation gates for the generator's hot
   paths, bit-identity between the three column writers (generator,
   phase schedule, recorded trace) and the generator's step cursor,
   and the trace file's round trip of recorded rows. Counting minor
   words is deterministic on one domain, so every gate is exact. *)

module Rng = Fom_util.Rng
module Address_gen = Fom_trace.Address_gen
module Branch_behavior = Fom_trace.Branch_behavior
module Config = Fom_trace.Config
module Program = Fom_trace.Program
module Stream = Fom_trace.Stream
module Source = Fom_trace.Source
module Packed = Fom_trace.Packed
module Phases = Fom_trace.Phases
module Trace_file = Fom_trace.Trace_file
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
  let d = Rng.distances ~short_p:0.85 ~p:(1.0 /. 3.0) ~long_max:256 in
  check_zero "Rng.distance" (fun () -> ignore (Rng.distance r d));
  (* Its table is built once per program: the 256-entry array, the
     record and its boxed log, nothing per bucket. *)
  let words =
    words_per_call ~calls:100 (fun () ->
        ignore (Rng.distances ~short_p:0.85 ~p:(1.0 /. 3.0) ~long_max:256))
  in
  Alcotest.(check bool)
    (Printf.sprintf "Rng.distances: %g minor words per table <= 270" words)
    true (words <= 270.0);
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
      per_instr ("Packed.of_source " ^ name) ~bound:0.5 (fun () ->
          ignore (Packed.of_source (Source.of_program p) ~n));
      let packed = Packed.of_source (Source.of_program p) ~n in
      per_instr ("Profile.replay and group " ^ name) ~bound:1.0 (fun () ->
          ignore
            (Profile.group ~burst_window:48 ~group_window:128 packed (Profile.replay packed ~n)));
      (* The recurrence's arrays are large enough to bypass the minor
         heap, so a run over a pre-built packing allocates ~nothing. *)
      let packed = Packed.of_source (Source.of_program p) ~n:(n + 256) in
      per_instr ("Iw_sim.ipc_of_packed W=32 " ^ name) ~bound:0.05 (fun () ->
          ignore (Fom_analysis.Iw_sim.ipc_of_packed packed ~window:32 ~n));
      per_instr ("Iw_sim.ipc_of_packed W=256 limit 2 " ^ name) ~bound:0.05 (fun () ->
          ignore (Fom_analysis.Iw_sim.ipc_of_packed ~issue_limit:2 packed ~window:256 ~n)))
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

(* A preset reseeded with its dependence, memory and control knobs
   redrawn: covers chase chains, short and long dependence distances,
   source counts and single-region programs (no calls). *)
let random_config (preset, seed, short_p, long_max, nsrc, chains, regions) =
  let presets = Array.of_list (Fom_workloads.Spec2000.all @ Fom_workloads.Micro.all) in
  let base = Fom_workloads.Spec2000.with_seed seed presets.(preset mod Array.length presets) in
  {
    base with
    Config.deps =
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

let columns (p : Packed.t) = [ p.Packed.op; p.pc; p.ea; p.dep_off; p.dep_val ]

let prop_column_writer_matches_generic =
  (* The generator writer steps the stream straight into the columns;
     the recorded-trace writer packs the same walk from rows read off
     the step cursor. Every column must agree. *)
  QCheck.Test.make ~name:"column writer matches generic packing" ~count:40 gen_config
    (fun config ->
      let p = Program.generate config in
      let n = 3000 in
      let direct = Packed.of_source (Source.of_program p) ~n in
      let s = Stream.create p in
      let recorded =
        Packed.of_source
          (Row.source (Array.init n (fun index -> Row.of_cursor ~index (Stream.step s))))
          ~n
      in
      columns direct = columns recorded)

let prop_schedule_writer_matches_phases =
  (* Row [i] of a two-phase schedule is row [i - start] of its phase's
     own packing, with dependences re-based to the activation's
     [start]. [n] ends part-way through a third pass, so the rows past
     one full pass restart the first phase's stream. *)
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
          let ins = Row.decode phase k in
          Row.decode packed i
          = { ins with Row.index = i; deps = Array.map (( + ) start) ins.Row.deps })
        (List.init n Fun.id))

(* A recorded row from plain fields: [cls] indexes
   {!Fom_isa.Opclass.all}, [dists] are dependence distances (those
   reaching before instruction 0 are dropped) and [addr] is the
   address or the control target. *)
let recorded index (cls, dists, addr, taken) =
  let opclass = List.nth Fom_isa.Opclass.all cls in
  Row.make ~index ~pc:(0x1000 + (4 * index)) ~opclass
    ~deps:
      (Array.of_list
         (List.filter_map (fun d -> if d <= index then Some (index - d) else None) dists))
    ?mem:(if Fom_isa.Opclass.is_memory opclass then Some addr else None)
    ?ctrl:
      (if Fom_isa.Opclass.is_control opclass then Some { Row.target = addr; taken }
       else None)
    ()

(* A fixed prefix covers all seven opclasses and zero to four
   dependences (generator traces never have more than two); a random
   tail follows. *)
let gen_recorded =
  let open QCheck.Gen in
  let prefix =
    [
      (0, [], 0, false);
      (1, [ 1 ], 0, false);
      (2, [ 1; 2 ], 0, false);
      (3, [ 1; 2; 3 ], 0xdead8, false);
      (4, [ 4; 3; 2; 1 ], 1 lsl 40, false);
      (5, [ 1 ], 0x2000, false);
      (6, [ 6; 5; 4 ], 0x3000, true);
    ]
  in
  let fields =
    quad (int_bound 6) (list_size (int_bound 5) (int_range 1 12)) (int_bound (1 lsl 40)) bool
  in
  map
    (fun tail -> Array.of_list (List.mapi recorded (prefix @ tail)))
    (list_size (int_bound 24) fields)

let prop_recorded_round_trip =
  (* Row [i] of a recorded packing decodes to recorded row [i mod len],
     its index and dependences re-based past the wrap. *)
  QCheck.Test.make ~name:"packed decodes recorded instructions" ~count:200
    QCheck.(pair (make gen_recorded) (int_range 1 100))
    (fun (instrs, n) ->
      let len = Array.length instrs in
      let packed = Packed.of_source (Row.source instrs) ~n in
      List.for_all
        (fun i ->
          let ins = instrs.(i mod len) and rebase = i - (i mod len) in
          Row.decode packed i
          = { ins with Row.index = i; deps = Array.map (( + ) rebase) ins.Row.deps })
        (List.init n Fun.id))

let prop_recorded_save_round_trip =
  (* Recorded rows the generator never makes (all seven classes, up to
     four dependences, addresses and targets up to 2^40) survive the
     trace file: saving, loading and saving again writes the same
     bytes, and the loaded trace packs column for column like the
     built one, past its end where both wrap. *)
  QCheck.Test.make ~name:"saved recorded trace loads and saves unchanged" ~count:50
    QCheck.(pair (make gen_recorded) (int_range 1 100))
    (fun (instrs, extra) ->
      let len = Array.length instrs in
      let built = Row.source instrs in
      let first = Filename.temp_file "fom" ".trace" in
      let second = Filename.temp_file "fom" ".trace" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove first;
          Sys.remove second)
        (fun () ->
          Trace_file.save ~path:first built ~n:len;
          let loaded = Trace_file.load ~path:first in
          Trace_file.save ~path:second loaded ~n:len;
          let n = len + extra in
          String.equal (Digest.file first) (Digest.file second)
          && columns (Packed.of_source loaded ~n) = columns (Packed.of_source built ~n)))

(* Digest of every field of the first [n] generated instructions, one
   line per row of their packing: the {!Row.pp} rendering plus the
   dependence list. The pinned digests were taken when this text was
   printed from the stream one instruction at a time, so they also pin
   the packing to the stream. *)
let stream_digest p ~n =
  let packed = Packed.of_source (Source.of_program p) ~n in
  let b = Buffer.create (64 * n) in
  for i = 0 to n - 1 do
    let ins = Row.decode packed i in
    Buffer.add_string b
      (Format.asprintf "%a <- %s\n" Row.pp ins
         (String.concat " " (List.map string_of_int (Array.to_list ins.Row.deps))))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Pinned digests of every preset's first 5000 instructions, at the
   preset's seed and regenerated by [Spec2000.with_seed 99]: every
   exhibit descends from these traces, so the generator must not move
   them by a single bit. *)
let stream_golden =
  [
    ("bzip2", "806ce6cf915862984d1e9f67f94efc09", "eb7541b5e56cd0ee98b4573eb5021bee");
    ("crafty", "3f18e76adda2cc9b196524d036483ad0", "ef6e3ee82f9c2bcce0a2e91b1bce0092");
    ("eon", "b27afe354c61f3a6ea50de323370a5b6", "16ff048bef90ecce0523dde363359d74");
    ("gap", "b8aea36a1f1165ca057341a2cfa44a10", "f9a76f2332d99c9cd589c92705ea8c37");
    ("gcc", "814c124ca8c210ca3e3ff9d472a34545", "b74280222d2ac036814e8cc9a4df5c9a");
    ("gzip", "440757bc0e5966859113e7d78c72fa27", "6181e5feeb36706861f1716cb0957086");
    ("mcf", "09a569bd0882471b3b2e4620f76e8e38", "e3e8b146df1aee6059cdf890cd0918a6");
    ("parser", "7529adaf2586074bf524fb6349b5fcb3", "81c172578c925c552956c187574b8196");
    ("perlbmk", "ae5627128ca81f6c6465947466f90d34", "3fc95a0bf2427fa7f717183f7144991a");
    ("twolf", "3e27e5d74ac447a5a411e7e732b36b32", "4f9cb63848255519f1b00e2d35792669");
    ("vortex", "20e5c4b63d83ce49559c0d7e65917fa9", "eee22c5a37608a25201932fad76f3841");
    ("vpr", "60e254b7d5ae7826d22b1b996faf2ace", "84e2efe1832a5cd8ba146030427d5fdf");
    ("serial-chain", "97f27adf92e2896c579eedae9ad94eb0", "2cd46fdfab1e411adc6fdeef06a0a0c1");
    ("independent", "c309f3f6b239869364eca0c19b19c51c", "aa1772a9aed8deaa8d8313bb99a83949");
    ("pointer-chase", "494f326db82341e6fd0af6b0133ce102", "704f39031ffe6b63d25012d153c622f7");
    ("streaming", "a813779020359510f83aaa850c403df2", "e5fa1886d8f30ef846d9486648d42675");
    ("branchy", "6425166bab166d7798047d5edfee9f6b", "80b76a9eaa99f287db7f9034675ae4c4");
    ("loopy", "2bd0d5fc07ec014b8d952198771af2af", "6901885c702de288d9decf80f53e83a0");
  ]

(* Digest of every column entry a packing uses: [dep_val] up to
   [dep_off.(len)], its unused capacity left out. *)
let packed_digest (p : Packed.t) =
  let b = Buffer.create (1 lsl 20) in
  let add column len =
    for i = 0 to len - 1 do
      Buffer.add_string b (string_of_int column.(i));
      Buffer.add_char b ' '
    done;
    Buffer.add_char b '\n'
  in
  add p.Packed.op p.len;
  add p.pc p.len;
  add p.ea p.len;
  add p.dep_off (p.len + 1);
  add p.dep_val p.dep_off.(p.len);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_stream_golden () =
  let presets = Fom_workloads.Spec2000.all @ Fom_workloads.Micro.all in
  Alcotest.(check int) "every preset pinned" (List.length presets) (List.length stream_golden);
  List.iter
    (fun config ->
      let name = config.Config.name in
      let plain, reseeded =
        match List.find_opt (fun (n, _, _) -> n = name) stream_golden with
        | Some (_, plain, reseeded) -> (plain, reseeded)
        | None -> Alcotest.failf "%s: no pinned digest" name
      in
      let p = Program.generate config in
      Alcotest.(check string) (name ^ " default seed") plain (stream_digest p ~n:5000);
      Alcotest.(check string)
        (name ^ " with_seed 99")
        reseeded
        (stream_digest (Program.generate (Fom_workloads.Spec2000.with_seed 99 config)) ~n:5000))
    presets;
  (* A phase schedule creates a fresh stream per activation: 20000
     rows over 3000-instruction gzip and mcf phases cross six
     activations and end part-way through a seventh. *)
  let schedule =
    Phases.source
      (List.map
         (fun name ->
           { Phases.config = Fom_workloads.Spec2000.find name; instructions = 3000 })
         [ "gzip"; "mcf" ])
  in
  Alcotest.(check string)
    "gzip+mcf schedule packing" "7a86f17f0b35581e3fa53027a35fc4f7"
    (packed_digest (Packed.of_source schedule ~n:20_000))

let suite =
  ( "generation",
    [
      Alcotest.test_case "rng draws allocation-free" `Quick test_rng_draws_allocation_free;
      Alcotest.test_case "address and branch generators allocation-free" `Quick
        test_generators_allocation_free;
      Alcotest.test_case "pack, profile and stream words per instruction" `Quick
        test_generation_allocation_per_instr;
      Alcotest.test_case "generated trace unchanged" `Quick test_stream_golden;
      QCheck_alcotest.to_alcotest prop_column_writer_matches_generic;
      QCheck_alcotest.to_alcotest prop_schedule_writer_matches_phases;
      QCheck_alcotest.to_alcotest prop_recorded_round_trip;
      QCheck_alcotest.to_alcotest prop_recorded_save_round_trip;
    ] )
