(* Tests for Fom_obs: span nesting through the per-domain ring
   buffers, the no-op default sink, the Chrome
   trace exporter's structural guarantees (balanced, parseable by the
   repository's own JSON reader), a Json roundtrip property for the
   exporter's serializer, and the end-to-end determinism contract —
   enabling observability must not change a single computed value.

   Every test that enables the sink disables it on the way out
   (Fun.protect): the sink is global state shared with every other
   suite in this binary, and those suites assert against the quiet
   default. *)

module Span = Fom_obs.Span
module Metrics = Fom_obs.Metrics
module Sink = Fom_obs.Sink
module Export = Fom_obs.Export
module Json = Fom_util.Json
module Pool = Fom_exec.Pool
module Memo = Fom_exec.Memo
module Iw_curve = Fom_analysis.Iw_curve

let with_sink ?span_capacity f =
  Sink.enable ?span_capacity ();
  Fun.protect ~finally:Sink.disable f

let counter_value name =
  match List.assoc_opt name (Metrics.snapshot ()).Metrics.counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %S is not registered" name

let test_span_nesting () =
  with_sink (fun () ->
      let outer = Span.id "test.outer" in
      let inner = Span.id "test.inner" in
      Span.with_ outer (fun () ->
          Span.with_ inner ignore;
          Span.with_ inner ignore);
      let mine =
        List.filter
          (fun (e : Span.event) -> e.Span.domain = (Domain.self () :> int))
          (Span.events ())
      in
      let shape =
        List.map
          (fun (e : Span.event) ->
            (e.Span.name, match e.Span.phase with Span.Begin -> "B" | Span.End -> "E"))
          mine
      in
      Alcotest.(check (list (pair string string)))
        "begin/end nesting"
        [
          ("test.outer", "B");
          ("test.inner", "B");
          ("test.inner", "E");
          ("test.inner", "B");
          ("test.inner", "E");
          ("test.outer", "E");
        ]
        shape;
      (* Timestamps are non-decreasing within the domain. *)
      ignore
        (List.fold_left
           (fun prev (e : Span.event) ->
             Alcotest.(check bool) "monotonic ts" true (e.Span.ts_ns >= prev);
             e.Span.ts_ns)
           min_int mine))

let test_span_end_on_raise () =
  with_sink (fun () ->
      let s = Span.id "test.raiser" in
      (try Span.with_ s (fun () -> failwith "boom") with Failure _ -> ());
      let phases =
        List.filter_map
          (fun (e : Span.event) ->
            if String.equal e.Span.name "test.raiser" then Some e.Span.phase else None)
          (Span.events ())
      in
      Alcotest.(check int) "begin and end both recorded" 2 (List.length phases))

(* With the sink on, a span over a preallocated thunk allocates nothing
   once the domain's buffer exists: two array stores and a clock read
   per event (exact on one domain in native code). *)
let test_span_allocates_nothing () =
  with_sink (fun () ->
      let s = Span.id "test.alloc" in
      let f () = () in
      Span.with_ s f;
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Span.with_ s f
      done;
      Alcotest.(check (float 0.0)) "minor words" 0.0 (Gc.minor_words () -. before))

let test_span_capacity_drops () =
  (* A deliberately tiny buffer: overflow is counted, not crashed on,
     and the exporter still balances what survived. *)
  with_sink ~span_capacity:4 (fun () ->
      let s = Span.id "test.flood" in
      for _ = 1 to 100 do
        Span.with_ s ignore
      done;
      Alcotest.(check bool) "events dropped" true (Span.dropped () > 0);
      Alcotest.(check bool)
        "buffer bounded" true
        (List.length (Span.events ()) <= 4))

let test_disabled_is_noop () =
  Sink.disable ();
  let c = Metrics.counter "test.quiet" in
  let s = Span.id "test.quiet" in
  Metrics.incr c;
  Span.with_ s ignore;
  Sink.enable ();
  Fun.protect ~finally:Sink.disable (fun () ->
      (* enable reset everything; the pre-enable updates left no trace
         and post-enable the counter reads zero. *)
      Alcotest.(check int) "counter untouched" 0 (counter_value "test.quiet");
      Alcotest.(check int) "no span events" 0 (List.length (Span.events ())))

let test_chrome_trace_balances () =
  with_sink (fun () ->
      let a = Span.id "test.trace_a" in
      let b = Span.id "test.trace_b" in
      Span.with_ a (fun () -> Span.with_ b ignore);
      let path = Filename.temp_file "fom" ".json" in
      let doc =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            (* [a] is still open when the trace is written: the
               exporter must close it *)
            Span.with_ a (fun () -> Export.write_chrome_trace ~path);
            Json.of_file ~path)
      in
      let events =
        match Json.member "traceEvents" doc with
        | Some (Json.List l) -> l
        | Some _ | None -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check bool) "nonempty" true (events <> []);
      let depth = ref 0 in
      List.iter
        (fun ev ->
          match Json.member "ph" ev with
          | Some (Json.String "B") -> incr depth
          | Some (Json.String "E") ->
              decr depth;
              Alcotest.(check bool) "never negative" true (!depth >= 0)
          | Some (Json.String "M") -> ()
          | Some _ | None -> Alcotest.fail "event without ph")
        events;
      Alcotest.(check int) "balanced after synthetic closes" 0 !depth)

(* Json values without floats roundtrip exactly; with floats the
   printer's %.12g representation must at least reach a fixpoint after
   one trip. Object keys and strings exercise the escaper (quotes,
   backslashes, control characters, high ASCII). *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (oneof [ small_signed_int; return max_int; return min_int ]);
        map (fun s -> Json.String s) (string_size ~gen:(char_range '\000' '\127') (0 -- 12));
      ]
  in
  let key = string_size ~gen:(char_range '\000' '\127') (0 -- 8) in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (0 -- 4) (pair key (self (depth - 1)))) );
          ])
    3

let prop_json_roundtrip_exact =
  QCheck.Test.make ~name:"Json roundtrip (float-free values, exact)" ~count:500
    (QCheck.make json_gen)
    (fun v -> Json.of_string (Json.to_string v) = v)

let prop_json_float_fixpoint =
  QCheck.Test.make ~name:"Json float printing reaches a fixpoint" ~count:200
    QCheck.(list (pair small_string float))
    (fun kvs ->
      let v = Json.Obj (List.map (fun (k, f) -> (k, Json.Float f)) kvs) in
      let once = Json.to_string (Json.of_string (Json.to_string v)) in
      let twice = Json.to_string (Json.of_string once) in
      String.equal once twice)

let test_determinism_with_sink () =
  (* The acceptance contract: enabling observability changes no
     computed value. Compare an IW characterization — points and
     power-law fit — bit for bit across sink states. *)
  let program = Fom_trace.Program.generate (Fom_workloads.Spec2000.find "gzip") in
  let packed =
    Fom_trace.Packed.of_source (Fom_trace.Source.of_program program) ~n:(4000 + 64)
  in
  let measure () = Iw_curve.measure_packed ~windows:[ 4; 16; 64 ] ~n:4000 packed in
  Sink.disable ();
  let quiet = measure () in
  let observed = with_sink measure in
  List.iter2
    (fun (a : Iw_curve.point) (b : Iw_curve.point) ->
      Alcotest.(check int) "window" a.Iw_curve.window b.Iw_curve.window;
      Alcotest.(check (float 0.0)) "ipc bit-identical" a.Iw_curve.ipc b.Iw_curve.ipc)
    quiet.Iw_curve.points observed.Iw_curve.points;
  Alcotest.(check (float 0.0)) "alpha" (Iw_curve.alpha quiet) (Iw_curve.alpha observed);
  Alcotest.(check (float 0.0)) "beta" (Iw_curve.beta quiet) (Iw_curve.beta observed)

let test_pool_metrics () =
  with_sink (fun () ->
      Pool.with_pool ~jobs:2 ~domains:2 (fun pool ->
          ignore (Pool.map pool ~f:(fun x -> x * x) (List.init 64 Fun.id)));
      Alcotest.(check int) "every task counted" 64 (counter_value "pool.tasks");
      let task_spans =
        List.filter
          (fun (e : Span.event) -> String.equal e.Span.name "pool.task")
          (Span.events ())
      in
      Alcotest.(check int) "a span per task boundary" (2 * 64) (List.length task_spans))

let test_memo_metrics () =
  with_sink (fun () ->
      let memo = Memo.create () in
      Alcotest.(check int) "computed" 9 (Memo.get memo "k" (fun () -> 9));
      Alcotest.(check int) "joined" 9 (Memo.get memo "k" (fun () -> 10));
      Alcotest.(check int) "one compute" 1 (counter_value "memo.computes");
      Alcotest.(check int) "one join" 1 (counter_value "memo.joins"))

let test_model_evaluate_span () =
  (* One model evaluation is one balanced library span. *)
  let inputs =
    {
      Fom_model.Inputs.name = "span";
      instructions = 100_000;
      alpha = 1.2;
      beta = 0.6;
      fit_r2 = 0.99;
      avg_latency = 1.3;
      mispredictions_per_instr = 0.005;
      mispred_bursts = Fom_util.Distribution.of_list [ (1, 50) ];
      l1i_misses_per_instr = 0.001;
      l2i_misses_per_instr = 0.0002;
      short_misses_per_instr = 0.01;
      long_misses_per_instr = 0.002;
      long_miss_groups = Fom_util.Distribution.of_list [ (1, 10) ];
      dtlb_misses_per_instr = 0.0;
      dtlb_groups = Fom_util.Distribution.create ();
    }
  in
  with_sink (fun () ->
      ignore (Fom_model.Cpi.evaluate Fom_model.Params.baseline inputs);
      Alcotest.(check (list string))
        "one Begin/End pair" [ "B"; "E" ]
        (List.filter_map
           (fun (e : Span.event) ->
             if String.equal e.Span.name "model.evaluate" then
               Some (match e.Span.phase with Span.Begin -> "B" | Span.End -> "E")
             else None)
           (Span.events ())))

let test_sim_skipped_cycles () =
  (* The detailed simulator jumps over cycles in which nothing can
     happen. On the baseline machine mcf spends most cycles waiting on
     long misses, which a skip covers; the ideal machine has no misses
     to wait on, so gzip there skips next to nothing. *)
  let skipped_share name config =
    with_sink (fun () ->
        let program = Fom_trace.Program.generate (Fom_workloads.Spec2000.find name) in
        let cycles = (Fom_uarch.Simulate.run config program ~n:20_000).Fom_uarch.Stats.cycles in
        Alcotest.(check int) "sim.cycles" cycles (counter_value "sim.cycles");
        float_of_int (counter_value "sim.skipped_cycles") /. float_of_int cycles)
  in
  let mcf = skipped_share "mcf" Fom_uarch.Config.baseline in
  Alcotest.(check bool) (Printf.sprintf "mcf/baseline skips %.3f >= 0.5" mcf) true (mcf >= 0.5);
  let gzip = skipped_share "gzip" (Fom_uarch.Config.ideal Fom_uarch.Config.baseline) in
  Alcotest.(check bool) (Printf.sprintf "gzip/ideal skips %.3f < 0.05" gzip) true (gzip < 0.05)

let suite =
  ( "obs",
    [
      Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "span end recorded on raise" `Quick test_span_end_on_raise;
      Alcotest.test_case "traced span allocates nothing" `Quick test_span_allocates_nothing;
      Alcotest.test_case "span buffer overflow drops, not crashes" `Quick
        test_span_capacity_drops;
      Alcotest.test_case "disabled sink records nothing" `Quick test_disabled_is_noop;
      Alcotest.test_case "chrome trace parses and balances" `Quick test_chrome_trace_balances;
      QCheck_alcotest.to_alcotest prop_json_roundtrip_exact;
      QCheck_alcotest.to_alcotest prop_json_float_fixpoint;
      Alcotest.test_case "results bit-identical with sink on" `Quick
        test_determinism_with_sink;
      Alcotest.test_case "pool metrics and spans" `Quick test_pool_metrics;
      Alcotest.test_case "memo metrics" `Quick test_memo_metrics;
      Alcotest.test_case "model.evaluate span" `Quick test_model_evaluate_span;
      Alcotest.test_case "simulator skips idle cycles" `Quick test_sim_skipped_cycles;
    ] )
