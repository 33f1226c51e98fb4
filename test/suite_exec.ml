(* Tests for Fom_exec: deterministic ordering and jobs-independence
   (the --jobs 1 reproducibility contract), the batch floor, per-task
   exception capture as diagnostics, pool survival after failures, the
   explicit per-task seed split through Fom_trace, exactly-once Memo
   futures under concurrent demand, and the on-disk Cache's
   corrupt/stale handling.

   Concurrency tests pass [~domains] to the pool to force true
   multi-domain execution: without it a single-core machine caps the
   pool at one domain and the races under test never happen. *)

module Pool = Fom_exec.Pool
module Memo = Fom_exec.Memo
module Cache = Fom_exec.Cache
module Checker = Fom_check.Checker
module Diagnostic = Fom_check.Diagnostic
module Rng = Fom_util.Rng
module Iw_curve = Fom_analysis.Iw_curve
module Source = Fom_trace.Source

let gzip = lazy (Fom_trace.Program.generate (Fom_workloads.Spec2000.find "gzip"))

let test_map_preserves_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let items = List.init 100 (fun i -> i) in
      let got = Pool.map pool ~f:(fun x -> (2 * x) + 1) items in
      Alcotest.(check (list int)) "ordered" (List.map (fun x -> (2 * x) + 1) items) got)

let test_map_empty_and_single () =
  Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool ~f:(fun x -> x) []);
      Alcotest.(check (list int)) "single" [ 7 ] (Pool.map pool ~f:(fun x -> x + 4) [ 3 ]))

let test_jobs_invariance_iw_curve () =
  (* The acceptance contract: a --jobs 1 run reproduces the parallel
     run bit for bit. The IW curve is the hot path the pool serves, so
     compare every point and the fit across worker counts, with exact
     float equality. *)
  let program = Lazy.force gzip in
  let windows = [ 4; 16; 64 ] in
  let measure pool = Iw_curve.measure ?pool ~windows ~n:4000 program in
  let sequential = measure None in
  let check_points (parallel : Iw_curve.t) =
    List.iter2
      (fun (a : Iw_curve.point) (b : Iw_curve.point) ->
        Alcotest.(check int) "window" a.Iw_curve.window b.Iw_curve.window;
        Alcotest.(check (float 0.0)) "ipc bit-identical" a.Iw_curve.ipc b.Iw_curve.ipc)
      sequential.Iw_curve.points parallel.Iw_curve.points;
    Alcotest.(check (float 0.0))
      "alpha bit-identical" (Iw_curve.alpha sequential) (Iw_curve.alpha parallel);
    Alcotest.(check (float 0.0))
      "beta bit-identical" (Iw_curve.beta sequential) (Iw_curve.beta parallel)
  in
  Pool.with_pool ~jobs:1 (fun pool -> check_points (measure (Some pool)));
  Pool.with_pool ~jobs:2 ~domains:2 (fun pool -> check_points (measure (Some pool)));
  Pool.with_pool ~jobs:4 ~domains:4 (fun pool -> check_points (measure (Some pool)))

let test_exception_becomes_diagnostic () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (match Pool.map pool ~f:(fun x -> if x = 13 then failwith "boom" else x) (List.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected Invalid"
      | exception Checker.Invalid ds ->
          Alcotest.(check int) "one diagnostic" 1 (List.length ds);
          let d = List.hd ds in
          Alcotest.(check string) "code" "FOM-E002" d.Diagnostic.code;
          Alcotest.(check string) "path names the task" "exec.task[13]" d.Diagnostic.path);
      (* The pool survives the failure: the next batch runs normally. *)
      let got = Pool.map pool ~f:(fun x -> x * x) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "pool alive after failure" [ 1; 4; 9 ] got)

let test_task_diagnostics_rerooted () =
  (* A task raising Checker.Invalid keeps its own code; the path gains
     the task index. Every failing task is reported, not just the
     first. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      match
        Pool.map pool
          ~f:(fun x ->
            Checker.ensure ~code:"FOM-P001" ~path:"params.width" (x mod 2 = 0) "odd";
            x)
          [ 0; 1; 2; 3 ]
      with
      | _ -> Alcotest.fail "expected Invalid"
      | exception Checker.Invalid ds ->
          Alcotest.(check int) "both failures reported" 2 (List.length ds);
          List.iter
            (fun (d : Diagnostic.t) ->
              Alcotest.(check string) "original code kept" "FOM-P001" d.Diagnostic.code)
            ds;
          Alcotest.(check (list string))
            "paths rerooted under task indices"
            [ "exec.task[1].params.width"; "exec.task[3].params.width" ]
            (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.path) ds))

(* The sum of [f] over [items], mapped on [pool]. *)
let map_sum pool ~f items = List.fold_left ( + ) 0 (Pool.map pool ~f items)

let test_nested_map () =
  (* A task may map on the same pool; the waiting caller helps drain
     the queue, so this terminates even with a single worker. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let got =
        Pool.map pool
          ~f:(fun row -> map_sum pool ~f:(fun x -> row * x) [ 1; 2; 3 ])
          [ 1; 2 ]
      in
      Alcotest.(check (list int)) "nested" [ 6; 12 ] got)

let test_shutdown_rejects_use () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  match Pool.map pool ~f:(fun x -> x) [ 1; 2 ] with
  | _ -> Alcotest.fail "expected Invalid"
  | exception Checker.Invalid [ d ] ->
      Alcotest.(check string) "code" "FOM-E003" d.Diagnostic.code
  | exception Checker.Invalid _ -> Alcotest.fail "expected one diagnostic"

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one" true (Pool.with_pool Pool.jobs >= 1)

let test_split_seeds_deterministic () =
  let a = Rng.split_seeds (Rng.create 42) 8 in
  let b = Rng.split_seeds (Rng.create 42) 8 in
  Alcotest.(check (array int)) "same root, same seeds" a b;
  let c = Rng.split_seeds (Rng.create 43) 8 in
  Alcotest.(check bool) "different root differs" true (a <> c);
  let distinct = List.sort_uniq compare (Array.to_list a) in
  Alcotest.(check int) "seeds distinct" 8 (List.length distinct);
  Array.iter (fun s -> Alcotest.(check bool) "non-negative" true (s >= 0)) a

let test_split_n_matches_split () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let streams = Rng.split_n a 3 in
  let manual = Array.init 3 (fun _ -> Rng.split b) in
  Array.iteri
    (fun i s ->
      Alcotest.(check int64) "same stream" (Rng.bits64 manual.(i)) (Rng.bits64 s))
    streams

let test_source_seed_override () =
  (* The per-task seed split through lib/trace: an explicit seed
     reproduces exactly, and differs from the config's default
     stream. *)
  let program = Lazy.force gzip in
  let record seed =
    let packed = Fom_trace.Packed.of_source (Source.of_program ?seed program) ~n:500 in
    Array.init 500 (Fom_trace.Packed.instr packed)
  in
  let a = record (Some 1234) and b = record (Some 1234) in
  Alcotest.(check bool) "explicit seed reproduces" true (a = b);
  let default = record None in
  Alcotest.(check bool) "override perturbs the stream" true (a <> default)

let test_resolve_jobs () =
  let recommended = Pool.recommended_domain_count () in
  (* No request: the default (FOM_JOBS or the recommended count), and
     never a warning — on a single-core machine this is the sequential
     default the harnesses rely on. *)
  let jobs, warnings = Pool.resolve_jobs () in
  Alcotest.(check int) "default" (Pool.with_pool Pool.jobs) jobs;
  Alcotest.(check int) "no warning by default" 0 (List.length warnings);
  (* An explicit in-budget request passes through silently. *)
  let jobs, warnings = Pool.resolve_jobs ~requested:1 () in
  Alcotest.(check int) "explicit 1" 1 jobs;
  Alcotest.(check int) "no warning in budget" 0 (List.length warnings);
  (* Oversubscription is honored but flagged FOM-E004 as a warning
     (never an error: determinism is unaffected). *)
  let jobs, warnings = Pool.resolve_jobs ~requested:(recommended + 7) () in
  Alcotest.(check int) "oversubscribed count honored" (recommended + 7) jobs;
  (match warnings with
  | [ d ] ->
      Alcotest.(check string) "code" "FOM-E004" d.Diagnostic.code;
      Alcotest.(check bool) "warning severity" true
        (d.Diagnostic.severity = Diagnostic.Warning)
  | ds -> Alcotest.fail (Printf.sprintf "expected one FOM-E004, got %d" (List.length ds)));
  (* A non-positive request comes back as a FOM-E001 *error*
     diagnostic with a sequential fallback — never an exception, so
     harnesses report it through their own channel and abort. *)
  let check_invalid label (jobs, diags) =
    Alcotest.(check int) (label ^ ": sequential fallback") 1 jobs;
    match diags with
    | [ d ] ->
        Alcotest.(check string) (label ^ ": code") "FOM-E001" d.Diagnostic.code;
        Alcotest.(check bool) (label ^ ": error severity") true (Diagnostic.is_error d)
    | ds -> Alcotest.fail (Printf.sprintf "%s: expected one FOM-E001, got %d" label (List.length ds))
  in
  check_invalid "requested 0" (Pool.resolve_jobs ~requested:0 ());
  check_invalid "requested -2" (Pool.resolve_jobs ~requested:(-2) ())

let test_resolve_jobs_env () =
  (* FOM_JOBS gets the same validation as --jobs: malformed or
     non-positive values are a FOM-E001 error with a sequential
     fallback, not a silent fall-through; blank means unset. *)
  let original = Sys.getenv_opt "FOM_JOBS" in
  let set v = Unix.putenv "FOM_JOBS" v in
  Fun.protect
    ~finally:(fun () -> set (Option.value original ~default:""))
    (fun () ->
      let invalid label v =
        set v;
        match Pool.resolve_jobs () with
        | 1, [ d ] ->
            Alcotest.(check string) (label ^ ": code") "FOM-E001" d.Diagnostic.code;
            Alcotest.(check bool) (label ^ ": error severity") true (Diagnostic.is_error d)
        | jobs, ds ->
            Alcotest.fail
              (Printf.sprintf "%s: expected (1, [FOM-E001]), got (%d, %d diags)" label jobs
                 (List.length ds))
      in
      invalid "malformed" "abc";
      invalid "zero" "0";
      invalid "negative" "-3";
      set "1";
      let jobs, diags = Pool.resolve_jobs () in
      Alcotest.(check int) "FOM_JOBS=1 honored" 1 jobs;
      Alcotest.(check int) "FOM_JOBS=1 silent" 0 (List.length diags);
      set "   ";
      let jobs, diags = Pool.resolve_jobs () in
      Alcotest.(check int) "blank means unset" (Pool.recommended_domain_count ()) jobs;
      Alcotest.(check int) "blank is silent" 0 (List.length diags);
      (* An explicit request wins over the environment, even an
         invalid environment. *)
      set "abc";
      let jobs, diags = Pool.resolve_jobs ~requested:1 () in
      Alcotest.(check int) "request beats env" 1 jobs;
      Alcotest.(check int) "request beats invalid env" 0 (List.length diags))

(* ---- scheduling ---- *)

(* [rounds] steps of a cheap recurrence from [seed]: CPU work of a
   chosen length with a checkable result. *)
let spin ~seed rounds =
  let acc = ref seed in
  for _ = 1 to rounds do
    acc := ((!acc * 31) + 1) mod 1_000_003
  done;
  !acc

(* A deliberately uneven task cost so domains finish out of order:
   task costs vary by three orders of magnitude within one batch. *)
let busy x = spin ~seed:x ((x mod 7 * 3000) + 10)

let test_uneven_batch_determinism () =
  (* Bit-identical results across jobs 1/2/4 and across repeated runs
     at the same job count, on a batch uneven enough that every domain
     takes tasks out of order. *)
  let items = List.init 200 (fun i -> i) in
  let expected = List.map busy items in
  List.iter
    (fun domains ->
      Pool.with_pool ~jobs:domains ~domains (fun pool ->
          let a = Pool.map pool ~f:busy items in
          let b = Pool.map pool ~f:busy items in
          Alcotest.(check (list int))
            (Printf.sprintf "domains=%d matches sequential" domains)
            expected a;
          Alcotest.(check (list int))
            (Printf.sprintf "domains=%d repeat identical" domains)
            expected b))
    [ 1; 2; 4 ]

let test_nested_map_deep () =
  (* Three levels of nesting on two real domains: every waiting caller
     must drive the stack for this to terminate. *)
  Pool.with_pool ~jobs:2 ~domains:2 (fun pool ->
      let got =
        Pool.map pool
          ~f:(fun a ->
            map_sum pool ~f:(fun b -> map_sum pool ~f:(fun c -> a * b * c) [ 1; 2 ]) [ 1; 2; 3 ])
          [ 1; 2 ]
      in
      (* sum over b in 1..3, c in 1..2 of a*b*c = a * 6 * 3 = 18a *)
      Alcotest.(check (list int)) "nested three deep" [ 18; 36 ] got)

let test_help_empty () =
  Pool.with_pool ~jobs:2 ~domains:2 (fun pool ->
      Alcotest.(check bool) "nothing runnable" false (Pool.help pool))

let test_batch_floor () =
  (* The domain that owns the memo cell computes it with a nested map
     and drives that map while the other domain is still busy with the
     slow task 1. If the driver popped the older outer tasks below its
     batch, one of them would demand "k" on the owning domain and fail
     with a false re-entrant FOM-E005. The growing spin moves the
     moment task 1 finishes across the nested map, iteration by
     iteration. *)
  Pool.with_pool ~jobs:2 ~domains:2 (fun pool ->
      for it = 0 to 399 do
        let memo = Memo.create ~pool () in
        match
          Pool.map pool
            ~f:(fun i ->
              if i = 1 then spin ~seed:0 (50_000 + (it * 1000))
              else
                Memo.get memo "k" (fun () ->
                    map_sum pool ~f:(fun _ -> spin ~seed:0 200_000) [ 0; 1; 2; 3 ]))
            (List.init 8 (fun i -> i))
        with
        | _ -> ()
        | exception Checker.Invalid ds ->
            Alcotest.failf "iteration %d: %s" it
              (String.concat "; " (List.map Diagnostic.to_string ds))
      done)

(* ---- memo futures ---- *)

let test_memo_exactly_once () =
  (* 32 concurrent demands spread over 4 keys on 4 real domains: each
     key's computation runs exactly once, and every demander gets the
     one result. The sleep widens the in-flight window so demanders
     genuinely race. *)
  Pool.with_pool ~jobs:4 ~domains:4 (fun pool ->
      let memo = Memo.create ~pool () in
      let computed = Atomic.make 0 in
      let got =
        Pool.map pool
          ~f:(fun i ->
            let key = i mod 4 in
            Memo.get memo key (fun () ->
                Atomic.incr computed;
                Unix.sleepf 0.005;
                key * 10))
          (List.init 32 (fun i -> i))
      in
      Alcotest.(check (list int))
        "every demander sees the one result"
        (List.init 32 (fun i -> i mod 4 * 10))
        got;
      Alcotest.(check int) "exactly one compute per key" 4 (Atomic.get computed);
      Alcotest.(check int) "compute_count agrees" 4 (Memo.compute_count memo);
      Alcotest.(check int) "four cells" 4 (Memo.length memo))

let test_memo_single_key_contention () =
  (* The fig14 regression in miniature: a whole batch demanding one
     heavy key must cost one computation, not jobs computations. *)
  Pool.with_pool ~jobs:4 ~domains:4 (fun pool ->
      let memo = Memo.create ~pool () in
      let computed = Atomic.make 0 in
      let got =
        Pool.map pool
          ~f:(fun _ ->
            Memo.get memo "only" (fun () ->
                Atomic.incr computed;
                Unix.sleepf 0.01;
                42))
          (List.init 16 (fun i -> i))
      in
      Alcotest.(check (list int)) "all 42" (List.init 16 (fun _ -> 42)) got;
      Alcotest.(check int) "computed once" 1 (Atomic.get computed))

let test_memo_failure_cached () =
  let memo = Memo.create () in
  let computed = ref 0 in
  let demand () =
    Memo.get memo "k" (fun () ->
        incr computed;
        failwith "boom")
  in
  (match demand () with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "owner's exception" "boom" m);
  (* A second demand re-raises the published failure without
     recomputing. *)
  (match demand () with
  | _ -> Alcotest.fail "expected cached Failure"
  | exception Failure m -> Alcotest.(check string) "same exception" "boom" m);
  Alcotest.(check int) "computed once despite two demands" 1 !computed;
  Alcotest.(check int) "compute_count counts the one start" 1 (Memo.compute_count memo)

let test_memo_reentrant_detected () =
  let memo = Memo.create () in
  match Memo.get memo "k" (fun () -> Memo.get memo "k" (fun () -> 1)) with
  | _ -> Alcotest.fail "expected Invalid"
  | exception Checker.Invalid (d :: _) ->
      Alcotest.(check string) "re-entrant demand flagged" "FOM-E005" d.Diagnostic.code
  | exception Checker.Invalid [] -> Alcotest.fail "empty diagnostics"

(* ---- on-disk cache ---- *)

let with_cache_dir f =
  let dir = Filename.temp_file "fom-cache" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_cache_roundtrip () =
  with_cache_dir (fun dir ->
      let key = Cache.digest [ "test"; Cache.part (1, "x"); "5" ] in
      let computed = ref 0 in
      let compute () =
        incr computed;
        [ 1.5; 2.5 ]
      in
      let cache = Cache.create ~dir in
      Alcotest.(check (list (float 0.0))) "computed" [ 1.5; 2.5 ] (Cache.get cache ~key compute);
      Alcotest.(check (pair int int)) "one miss" (0, 1) (Cache.stats cache);
      (* A fresh handle on the same directory — a separate process —
         hits the persisted entry. *)
      let cache2 = Cache.create ~dir in
      Alcotest.(check (list (float 0.0))) "hit" [ 1.5; 2.5 ] (Cache.get cache2 ~key compute);
      Alcotest.(check (pair int int)) "one hit" (1, 0) (Cache.stats cache2);
      Alcotest.(check int) "computed exactly once across runs" 1 !computed;
      Alcotest.(check int) "clean runs report nothing" 0
        (List.length (Cache.drain_diagnostics cache2)))

let test_cache_corrupt_entry () =
  with_cache_dir (fun dir ->
      let cache = Cache.create ~dir in
      let key = Cache.digest [ "test"; "corrupt" ] in
      let oc = open_out_bin (Cache.entry_path cache ~key) in
      output_string oc "this is not a marshaled entry";
      close_out oc;
      Alcotest.(check int) "recomputed" 7 (Cache.get cache ~key (fun () -> 7));
      (match Cache.drain_diagnostics cache with
      | [ d ] ->
          Alcotest.(check string) "corrupt flagged" "FOM-E006" d.Diagnostic.code;
          Alcotest.(check bool) "warning, not error" true
            (d.Diagnostic.severity = Diagnostic.Warning)
      | ds -> Alcotest.fail (Printf.sprintf "expected one FOM-E006, got %d" (List.length ds)));
      (* The damaged file was deleted and replaced by the recomputed
         entry, so the next demand is a clean hit. *)
      Alcotest.(check int) "clean hit after repair" 7 (Cache.get cache ~key (fun () -> 8));
      Alcotest.(check int) "no further diagnostics" 0
        (List.length (Cache.drain_diagnostics cache)))

let test_cache_stale_entry () =
  with_cache_dir (fun dir ->
      let cache = Cache.create ~dir in
      let key = Cache.digest [ "test"; "stale" ] in
      (* Forge an entry written by "another code version": a valid
         marshaled (header, value) pair whose header cannot match. *)
      let oc = open_out_bin (Cache.entry_path cache ~key) in
      Marshal.to_channel oc ("fom-cache/0:obsolete:" ^ key, 999) [];
      close_out oc;
      Alcotest.(check int) "stale entry recomputed, not trusted" 7
        (Cache.get cache ~key (fun () -> 7));
      match Cache.drain_diagnostics cache with
      | [ d ] -> Alcotest.(check string) "stale flagged" "FOM-E007" d.Diagnostic.code
      | ds -> Alcotest.fail (Printf.sprintf "expected one FOM-E007, got %d" (List.length ds)))

let test_cache_digest_separates () =
  let base = [ "sim"; Cache.part (1, 2); "100" ] in
  Alcotest.(check string) "stable" (Cache.digest base) (Cache.digest base);
  Alcotest.(check bool) "parts change the key" true
    (Cache.digest base <> Cache.digest [ "sim"; Cache.part (1, 3); "100" ]);
  Alcotest.(check bool) "kind tag changes the key" true
    (Cache.digest base <> Cache.digest [ "characterization"; Cache.part (1, 2); "100" ])

let test_cache_dir_not_creatable () =
  let file = Filename.temp_file "fom-cache" ".file" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      match Cache.create ~dir:file with
      | _ -> Alcotest.fail "expected Invalid"
      | exception Checker.Invalid (d :: _) ->
          Alcotest.(check string) "E006" "FOM-E006" d.Diagnostic.code
      | exception Checker.Invalid [] -> Alcotest.fail "empty diagnostics")

let prop_map_agrees_with_list_map =
  QCheck.Test.make ~name:"pool map agrees with List.map and preserves order" ~count:50
    QCheck.(list small_int)
    (fun items ->
      Pool.with_pool ~jobs:4 (fun pool ->
          Pool.map pool ~f:(fun x -> (x * 31) + 7) items
          = List.map (fun x -> (x * 31) + 7) items))

let suite =
  ( "exec",
    [
      Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
      Alcotest.test_case "map empty and single" `Quick test_map_empty_and_single;
      Alcotest.test_case "jobs-invariant IW curve" `Quick test_jobs_invariance_iw_curve;
      Alcotest.test_case "exception becomes diagnostic" `Quick test_exception_becomes_diagnostic;
      Alcotest.test_case "task diagnostics rerooted" `Quick test_task_diagnostics_rerooted;
      Alcotest.test_case "nested map on one pool" `Quick test_nested_map;
      Alcotest.test_case "uneven batch determinism" `Quick test_uneven_batch_determinism;
      Alcotest.test_case "nested map three deep" `Quick test_nested_map_deep;
      Alcotest.test_case "help with empty queue" `Quick test_help_empty;
      Alcotest.test_case "batch floor" `Quick test_batch_floor;
      Alcotest.test_case "memo exactly once" `Quick test_memo_exactly_once;
      Alcotest.test_case "memo single-key contention" `Quick test_memo_single_key_contention;
      Alcotest.test_case "memo failure cached" `Quick test_memo_failure_cached;
      Alcotest.test_case "memo re-entrant demand" `Quick test_memo_reentrant_detected;
      Alcotest.test_case "cache roundtrip" `Quick test_cache_roundtrip;
      Alcotest.test_case "cache corrupt entry" `Quick test_cache_corrupt_entry;
      Alcotest.test_case "cache stale entry" `Quick test_cache_stale_entry;
      Alcotest.test_case "cache digest separates" `Quick test_cache_digest_separates;
      Alcotest.test_case "cache dir not creatable" `Quick test_cache_dir_not_creatable;
      Alcotest.test_case "shutdown rejects use" `Quick test_shutdown_rejects_use;
      Alcotest.test_case "default jobs positive" `Quick test_default_jobs_positive;
      Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
      Alcotest.test_case "resolve_jobs FOM_JOBS validation" `Quick test_resolve_jobs_env;
      Alcotest.test_case "split_seeds deterministic" `Quick test_split_seeds_deterministic;
      Alcotest.test_case "split_n matches split" `Quick test_split_n_matches_split;
      Alcotest.test_case "source seed override" `Quick test_source_seed_override;
      QCheck_alcotest.to_alcotest prop_map_agrees_with_list_map;
    ] )
