(* The reproduction harness: regenerates every data-bearing table and
   figure of Karkhanis & Smith, "A First-Order Superscalar Processor
   Model" (ISCA 2004), plus the ablation benches from DESIGN.md.

   Usage: dune exec bench/main.exe -- [--quick] [--scale X]
          [--only table1,fig15,...] [--list]
          [--jobs N] [--json PATH] [--git-rev REV] [--csv DIR]
          [--cache-dir DIR]

   Exhibits run on a shared Fom_exec.Pool domain pool (--jobs, default
   FOM_JOBS or the machine's core count); --jobs 1 reproduces the
   parallel harness byte-for-byte. --cache-dir persists sims and
   characterizations across runs (content-digest keys; see
   Fom_exec.Cache), so a rerun that changed nothing recomputes
   nothing. --json records the machine-readable timing baseline
   (schema fom-bench/1, see README); when the pool has more than one
   worker the harness re-times each exhibit back-to-back on a
   single-worker context — quietly, with its own in-process memos and
   *without* the disk cache — so the file carries measured speedups,
   not estimates, and flags any exhibit that parallelism made slower
   (speedup < 1 above the noise floor) instead of silently recording a
   regression. *)

let exhibits : (string * string * (Context.t -> unit)) list =
  [
    ("table1", "power-law parameters and average latency", Exhibits_iw.table1);
    ("fig2", "independence of miss-event penalties", Exhibits_events.fig2);
    ("fig4", "IW curves, all benchmarks", Exhibits_iw.fig4);
    ("fig5", "linear IW fits (gzip, vortex, vpr)", Exhibits_iw.fig5);
    ("fig6", "IW characteristic with limited issue width", Exhibits_iw.fig6);
    ("fig8", "isolated branch misprediction transient", Exhibits_iw.fig8);
    ("fig9", "penalty per branch misprediction", Exhibits_events.fig9);
    ("fig11", "penalty per I-cache miss", Exhibits_events.fig11);
    ("fig14", "penalty per long D-cache miss", Exhibits_events.fig14);
    ("fig15", "model vs simulation CPI", Exhibits_overall.fig15);
    ("fig16", "CPI stack", Exhibits_overall.fig16);
    ("fig17a", "IPC vs pipeline depth", Exhibits_trends.fig17a);
    ("fig17b", "BIPS vs pipeline depth, optimal depths", Exhibits_trends.fig17b);
    ("fig18", "mispredict distance vs issue width", Exhibits_trends.fig18);
    ("fig19", "issue ramp between mispredictions", Exhibits_trends.fig19);
    ("fig19-sim", "measured vs analytic issue ramp", Exhibits_trends.fig19_sim);
    ("ext-tlb", "data-TLB extension, model vs sim", Exhibits_extensions.tlb);
    ("ext-fu", "limited functional units extension", Exhibits_extensions.fu_limits);
    ("ext-buffer", "fetch-buffer extension", Exhibits_extensions.fetch_buffer);
    ("ext-cluster", "partitioned issue windows extension", Exhibits_extensions.clustering);
    ("ext-phases", "program phases extension", Exhibits_extensions.phases);
    ("ablation-model", "model variant errors", Exhibits_ablation.model_variants);
    ("ablation-fit", "power-law fit vs window range", Exhibits_ablation.fit_windows);
    ("ablation-little", "Little's-law accuracy", Exhibits_ablation.littles_law);
  ]

let exhibit_names = List.map (fun (name, _, _) -> name) exhibits

type options = {
  mutable scale : float;
  mutable only : string list option;
  mutable list_only : bool;
  mutable csv_dir : string option;
  mutable cache_dir : string option;
  mutable jobs : int option;
  mutable json : string option;
  mutable baseline : string option;
  mutable git_rev : string;
  mutable metrics : bool;
  mutable trace_out : string option;
}

let parse_args () =
  let options =
    {
      scale = 1.0;
      only = None;
      list_only = false;
      csv_dir = None;
      cache_dir = None;
      jobs = None;
      json = None;
      baseline = None;
      git_rev = Option.value (Sys.getenv_opt "FOM_GIT_REV") ~default:"unknown";
      metrics = false;
      trace_out = None;
    }
  in
  let split s = String.split_on_char ',' s |> List.map String.trim in
  let spec =
    [
      ("--quick", Arg.Unit (fun () -> options.scale <- 0.2), " run at 20% scale");
      ("--scale", Arg.Float (fun x -> options.scale <- x), "X instruction-count scale factor");
      ( "--only",
        Arg.String (fun s -> options.only <- Some (split s)),
        "LIST comma-separated exhibit names" );
      ("--list", Arg.Unit (fun () -> options.list_only <- true), " list exhibits and exit");
      ( "--csv",
        Arg.String (fun dir -> options.csv_dir <- Some dir),
        "DIR also write each exhibit's tables as CSV files" );
      ( "--cache-dir",
        Arg.String (fun dir -> options.cache_dir <- Some dir),
        "DIR persist sims and characterizations across runs, keyed by a content digest \
         of the workload + machine configuration, instruction counts and code version \
         (corrupt or stale entries are recomputed with a FOM-E warning)" );
      ( "--jobs",
        Arg.Int (fun j -> options.jobs <- Some j),
        "N worker domains (default: FOM_JOBS or the core count); 1 = sequential" );
      ( "--json",
        Arg.String (fun path -> options.json <- Some path),
        "PATH write the machine-readable timing baseline (schema fom-bench/1)" );
      ( "--baseline",
        Arg.String (fun path -> options.baseline <- Some path),
        "PATH gate wall times against a committed fom-bench/1 baseline (fail beyond 2x)" );
      ( "--git-rev",
        Arg.String (fun rev -> options.git_rev <- rev),
        "REV revision recorded in the JSON baseline (default: $FOM_GIT_REV or \"unknown\")" );
      ( "--metrics",
        Arg.Unit (fun () -> options.metrics <- true),
        " print an observability metrics table after the run (and record a \"metrics\" \
         block in --json); exhibit output is unchanged" );
      ( "--trace-out",
        Arg.String (fun path -> options.trace_out <- Some path),
        "PATH write a Chrome trace-event JSON of the run (load in Perfetto or \
         chrome://tracing); exhibit output is unchanged" );
    ]
  in
  Arg.parse (Arg.align spec)
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    "fom reproduction harness";
  options

(* Run [f] with stdout redirected to /dev/null — the JSON baseline's
   sequential replay re-prints every exhibit, and only the wall times
   are wanted. *)
let quietly f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close devnull)
    f

(* Run the selected exhibits against a fresh context, returning
   (name, wall seconds) per exhibit, the matching single-worker
   timings when [paired] is set, and the disk-cache hit/miss stats
   when --cache-dir was active.

   [paired] is the --json path on a parallel run: each exhibit is
   timed in [paired_rounds] alternating (parallel, single-worker)
   segments over independent replica contexts, and the reported
   parallel and sequential times are the min of each side. Two
   monolithic passes measurably do not compare like with like — the
   second pass's early exhibits absorb the major-GC debt of the first
   pass's dead context (hundreds of MB of packed traces and memoized
   results) and its late exhibits ride an oversized warm heap, skewing
   per-exhibit "speedups" tens of percent in both directions. Even
   back-to-back single timings jitter by tens of percent on a shared
   machine; interleaving replicas of each side and taking the min is
   the standard defence (the min of repeated wall times estimates the
   undisturbed cost, and alternation keeps slow-varying machine load
   from landing on one side only).

   Every replica keeps its own in-process memos (sharing across
   exhibits accumulates exactly as in a real run), only the primary
   context writes CSVs, and no replica sees the disk cache: the
   replica timings must stay true compute costs, or every speedup
   derived from them would be fiction. *)
let paired_rounds = 3

let run_pass ~jobs ?cache_dir ~paired ~csv_dir ~scale selected =
  let ctx = Context.create ?csv_dir ?cache_dir ~jobs ~scale () in
  (* Round 0's parallel segment is the primary context itself (None);
     every other slot is a fresh, quiet, cache-free replica. *)
  let rounds =
    if paired then
      List.init paired_rounds (fun i ->
          ( (if i = 0 then None else Some (Context.create ~jobs ~scale ())),
            Context.create ~jobs:1 ~scale () ))
    else []
  in
  Fun.protect
    ~finally:(fun () ->
      Context.shutdown ctx;
      List.iter
        (fun (par, seq) ->
          Option.iter Context.shutdown par;
          Context.shutdown seq)
        rounds)
    (fun () ->
      (* When paired, collect the previous segment's garbage *outside*
         the timed window: otherwise each segment's wall time includes
         major-GC work for allocations another context made. *)
      let time_segment run =
        if paired then Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        run ();
        Unix.gettimeofday () -. t0
      in
      let timed, sequential =
        List.fold_left
          (fun (timed, sequential) (name, _, run) ->
            (* Only the primary pass is observed: replica re-timings run
               with the sink paused, or they would double every span and
               add their work to every counter. *)
            let traced () = Fom_obs.Span.with_ (Fom_obs.Span.id name) (fun () -> run ctx) in
            let dt = time_segment traced in
            Printf.printf "[%s done in %.1fs]\n%!" name dt;
            match rounds with
            | [] -> ((name, dt) :: timed, sequential)
            | rounds ->
                let quiet c =
                  Fom_obs.Sink.paused (fun () -> time_segment (fun () -> quietly (fun () -> run c)))
                in
                let par_times, seq_times =
                  List.fold_left
                    (fun (ps, ss) (par, seq) ->
                      let p =
                        match par with None -> dt | Some c -> quiet c
                      in
                      (p :: ps, quiet seq :: ss))
                    ([], []) rounds
                in
                let best = List.fold_left Float.min infinity in
                ( (name, best par_times) :: timed,
                  (name, best seq_times) :: sequential ))
          ([], []) selected
      in
      List.iter
        (fun d -> prerr_endline (Fom_check.Diagnostic.to_string d))
        (Context.disk_diagnostics ctx);
      (match Context.disk_stats ctx with
      | Some (hits, misses) ->
          Printf.printf "[cache] %d hits, %d misses in %s\n%!" hits misses
            (Option.value cache_dir ~default:"")
      | None -> ());
      (List.rev timed, List.rev sequential, Context.disk_stats ctx))

(* The CI regression gate: every measured exhibit that also appears in
   the committed baseline must stay within 2x of the baseline's
   sequential wall time, after normalizing both sides by their scale
   factor (wall time is linear in the instruction counts, which all
   scale together). Exhibits whose normalized baseline is under 50ms
   are reported but never gated: at that magnitude the ratio measures
   timer noise, not code. The measured pass should itself run
   sequentially (--jobs 1) for the comparison to be strict; a parallel
   pass only makes the gate more permissive. Returns the regressed
   exhibits. *)
let baseline_gate_floor = 0.05

let baseline_regressions ~scale ~timed doc =
  let module J = Fom_util.Json in
  let base_scale =
    match Option.bind (J.member "scale" doc) J.number with
    | Some s when s > 0.0 -> s
    | Some _ | None -> 1.0
  in
  let baseline_seconds name =
    match J.member "exhibits" doc with
    | Some (J.List items) ->
        List.find_map
          (fun item ->
            match J.member "name" item with
            | Some (J.String n) when String.equal n name -> (
                match J.member "seconds_jobs1" item with
                | Some v -> J.number v
                | None -> Option.bind (J.member "seconds" item) J.number)
            | Some _ | None -> None)
          items
    | Some _ | None -> None
  in
  List.filter_map
    (fun (name, seconds) ->
      match baseline_seconds name with
      | Some base when base > 0.0 ->
          let ratio = seconds /. scale /. (base /. base_scale) in
          let gated = base /. base_scale >= baseline_gate_floor in
          Printf.printf
            "baseline gate: %-12s %.2fs at scale %.2f vs %.2fs at scale %.2f (%.2fx%s)\n" name
            seconds scale base base_scale ratio
            (if gated then "" else ", below the gate floor");
          if gated && ratio > 2.0 then Some (name, ratio) else None
      | Some _ | None -> None)
    timed

let json_report ~options ~jobs ~timed ~sequential ~cache_stats ~total_seconds =
  let module J = Fom_util.Json in
  let exhibit (name, seconds) =
    let base =
      [ ("name", J.String name); ("seconds", J.Float seconds) ]
    in
    let speedup =
      match List.assoc_opt name sequential with
      | Some seq when seconds > 0.0 ->
          [
            ("seconds_jobs1", J.Float seq);
            ("speedup_vs_jobs1", J.Float (seq /. seconds));
            (* Fraction of the advertised workers actually converted
               into speedup: 1.0 is perfect scaling, below 1/jobs is a
               parallel regression (also flagged by a warning line). *)
            ("parallel_efficiency", J.Float (seq /. seconds /. float_of_int jobs));
          ]
      | Some seq -> [ ("seconds_jobs1", J.Float seq) ]
      | None -> []
    in
    J.Obj (base @ speedup)
  in
  let cache =
    match cache_stats with
    | Some (hits, misses) ->
        (* A warm disk cache means the timed pass measured lookups,
           not kernels; consumers comparing wall times should check
           this field. *)
        [ ("cache_hits", J.Int hits); ("cache_misses", J.Int misses) ]
    | None -> []
  in
  (* Optional "metrics" block (schema documented in README): present
     only when an observability sink was enabled for the run. *)
  let metrics =
    if Fom_obs.Sink.enabled () then [ ("metrics", Fom_obs.Export.metrics_json ()) ] else []
  in
  J.Obj
    ([
       ("schema", J.String "fom-bench/1");
       ("git_rev", J.String options.git_rev);
       ("scale", J.Float options.scale);
       ("jobs", J.Int jobs);
       ("recommended_domains", J.Int (Domain.recommended_domain_count ()));
     ]
    @ cache
    @ [
        ("exhibits", J.List (List.map exhibit timed));
        ("total_seconds", J.Float total_seconds);
      ]
    @ metrics)

(* The honest-speedup report: every exhibit whose sequential time is
   above the noise floor and that the parallel pass made *slower* gets
   a warning line — a regression must be visible, not a JSON field
   someone might read. Two noise guards: the absolute floor (below it
   the ratio measures the timer), and a 5% jitter band (back-to-back
   timings of identical work routinely differ by a few percent even on
   an idle machine). Suppressed when the timed pass ran against a warm
   disk cache (the ratio then measures lookups, not the scheduler). *)
let jitter_band = 0.95

let parallel_regressions ~scale ~timed ~sequential =
  List.filter_map
    (fun (name, seconds) ->
      match List.assoc_opt name sequential with
      | Some seq
        when seconds > 0.0
             && seq /. scale >= baseline_gate_floor
             && seq /. seconds < jitter_band ->
          Some (name, seq, seconds)
      | Some _ | None -> None)
    timed

let run options =
  if options.list_only then
    List.iter (fun (name, descr, _) -> Printf.printf "%-16s %s\n" name descr) exhibits
  else begin
    let selected =
      match options.only with
      | None -> exhibits
      | Some names ->
          List.iter
            (fun n ->
              if not (List.mem n exhibit_names) then begin
                Printf.eprintf "unknown exhibit %S; valid names are: %s\n" n
                  (String.concat ", " exhibit_names);
                exit 2
              end)
            names;
          List.filter (fun (name, _, _) -> List.mem name names) exhibits
    in
    let jobs, jobs_diags = Fom_exec.Pool.resolve_jobs ?requested:options.jobs () in
    List.iter (fun d -> prerr_endline (Fom_check.Diagnostic.to_string d)) jobs_diags;
    if List.exists Fom_check.Diagnostic.is_error jobs_diags then exit 2;
    (* Read the baseline before the first exhibit runs: an unreadable
       or malformed file fails the run now, not after it. *)
    let baseline = Option.map (fun path -> Fom_util.Json.of_file ~path) options.baseline in
    if options.metrics || options.trace_out <> None then Fom_obs.Sink.enable ();
    Printf.printf
      "First-order superscalar model reproduction harness (scale %.2f, %d exhibits, %d jobs)\n"
      options.scale (List.length selected) jobs;
    let started = Unix.gettimeofday () in
    let timed, sequential, cache_stats =
      run_pass ~jobs ?cache_dir:options.cache_dir
        ~paired:(options.json <> None && jobs > 1)
        ~csv_dir:options.csv_dir ~scale:options.scale selected
    in
    let total = Unix.gettimeofday () -. started in
    (match options.json with
    | None -> ()
    | Some path ->
        let cache_warm = match cache_stats with Some (hits, _) -> hits > 0 | None -> false in
        if cache_warm then
          Printf.eprintf
            "note: timed pass hit the disk cache; speedup_vs_jobs1 measures lookups, not \
             the scheduler\n"
        else
          List.iter
            (fun (name, seq, par) ->
              Printf.eprintf
                "WARNING: exhibit %s is slower in parallel (%.2fs at %d jobs vs %.2fs \
                 sequential, speedup %.2fx)\n"
                name par jobs seq (seq /. par))
            (parallel_regressions ~scale:options.scale ~timed ~sequential);
        Fom_util.Json.write_file ~path
          (json_report ~options ~jobs ~timed ~sequential ~cache_stats ~total_seconds:total);
        Printf.printf "wrote timing baseline to %s\n" path);
    Printf.printf "\nTotal harness time: %.1fs\n" total;
    (* Observability output comes after every exhibit line so the
       exhibit stdout stays byte-identical with the flags off. *)
    if options.metrics then begin
      print_newline ();
      print_string (Fom_util.Table.heading "Observability metrics");
      let header, rows = Fom_obs.Export.metrics_rows () in
      Fom_util.Table.print ~header rows
    end;
    (match options.trace_out with
    | None -> ()
    | Some path ->
        Fom_obs.Export.write_chrome_trace ~path;
        Printf.printf "wrote Chrome trace to %s (load in Perfetto or chrome://tracing)\n" path);
    match baseline with
    | None -> ()
    | Some doc -> (
        match baseline_regressions ~scale:options.scale ~timed doc with
        | [] -> ()
        | regressions ->
            List.iter
              (fun (name, ratio) ->
                Printf.eprintf "FAIL: exhibit %s regressed to %.2fx of the baseline\n" name
                  ratio)
              regressions;
            exit 1)
  end

(* Bad option values and unusable paths end in a report on stderr and
   exit 2, like the harness's other argument errors. *)
let () =
  let options = parse_args () in
  match run options with
  | () -> ()
  | exception Fom_check.Checker.Invalid ds ->
      Format.eprintf "%a@." Fom_check.Checker.pp_report ds;
      exit 2
  | exception Sys_error message ->
      prerr_endline ("fom-bench: " ^ message);
      exit 2
