(* The reproduction harness: regenerates every data-bearing table and
   figure of Karkhanis & Smith, "A First-Order Superscalar Processor
   Model" (ISCA 2004), plus the ablation benches from DESIGN.md.

   Usage: dune exec bench/main.exe -- [--quick] [--scale X]
          [--only table1,fig15,...] [--list]
          [--jobs N] [--json PATH] [--git-rev REV] [--csv DIR]

   Exhibits run on a shared Fom_exec.Pool domain pool (--jobs, default
   FOM_JOBS or the machine's core count); --jobs 1 reproduces the
   parallel harness byte-for-byte. Every run recomputes every result
   (a full run takes seconds). --json records the machine-readable
   timing report (schema fom-bench/1, see README): each exhibit's wall
   time in the pass that ran, at whatever --jobs it ran with. A speedup
   is measured from separate --jobs 1 and --jobs N reports (README). *)

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

(* Seconds elapsed since [t0], a {!Fom_obs.Clock.now_ns} reading: the
   monotonic clock never steps, so neither do the exhibit times the
   baseline gate divides. *)
let seconds_since t0 = float_of_int (Fom_obs.Clock.now_ns () - t0) *. 1e-9

(* Run the selected exhibits against a fresh context, returning
   (name, wall seconds) per exhibit. *)
let run_pass ~jobs ~csv_dir ~scale selected =
  let ctx = Context.create ?csv_dir ~jobs ~scale () in
  Fun.protect
    ~finally:(fun () -> Context.shutdown ctx)
    (fun () ->
      List.map
        (fun (name, _, run) ->
          let t0 = Fom_obs.Clock.now_ns () in
          Fom_obs.Span.with_ (Fom_obs.Span.id name) (fun () -> run ctx);
          let dt = seconds_since t0 in
          Printf.printf "[%s done in %.1fs]\n%!" name dt;
          (name, dt))
        selected)

(* The CI regression gate: every measured exhibit that also appears in
   the committed baseline must stay within 2x of the baseline's
   sequential wall time. Both were timed at one scale
   ({!check_baseline_scale}): wall time is not linear in the scale,
   since fixed costs weigh more in a short run. Exhibits whose baseline
   is under 50ms are reported but never gated: at that magnitude the
   ratio measures timer noise, not code. The measured pass should
   itself run sequentially (--jobs 1) for the comparison to be strict;
   a parallel pass only makes the gate more permissive. Returns the
   regressed exhibits. *)
let baseline_gate_floor = 0.05

(* A baseline timed at another scale ends the run before any exhibit. *)
let check_baseline_scale ~scale doc =
  let module J = Fom_util.Json in
  match Option.bind (J.member "scale" doc) J.number with
  | Some base when Float.equal base scale -> ()
  | base ->
      Fom_check.Checker.run_exn
        (Fom_check.Checker.fail ~code:"FOM-I030" ~path:"bench.baseline.scale"
           (Printf.sprintf "the baseline was timed at %s but this run is at scale %g"
              (match base with Some b -> Printf.sprintf "scale %g" b | None -> "no recorded scale")
              scale))

let baseline_regressions ~timed doc =
  let module J = Fom_util.Json in
  let baseline_seconds name =
    match J.member "exhibits" doc with
    | Some (J.List items) ->
        List.find_map
          (fun item ->
            match J.member "name" item with
            | Some (J.String n) when String.equal n name ->
                Option.bind (J.member "seconds" item) J.number
            | Some _ | None -> None)
          items
    | Some _ | None -> None
  in
  List.filter_map
    (fun (name, seconds) ->
      match baseline_seconds name with
      | Some base when base > 0.0 ->
          let ratio = seconds /. base in
          let gated = base >= baseline_gate_floor in
          Printf.printf "baseline gate: %-12s %.2fs vs %.2fs (%.2fx%s)\n" name seconds base ratio
            (if gated then "" else ", below the gate floor");
          if gated && ratio > 2.0 then Some (name, ratio) else None
      | Some _ | None -> None)
    timed

let json_report ~options ~jobs ~timed ~total_seconds =
  let module J = Fom_util.Json in
  let exhibit (name, seconds) = J.Obj [ ("name", J.String name); ("seconds", J.Float seconds) ] in
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
       ("exhibits", J.List (List.map exhibit timed));
       ("total_seconds", J.Float total_seconds);
     ]
    @ metrics)

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
       or malformed file, or one timed at another scale, fails the run
       now, not after it. *)
    let baseline = Option.map (fun path -> Fom_util.Json.of_file ~path) options.baseline in
    Option.iter (check_baseline_scale ~scale:options.scale) baseline;
    if options.metrics || options.trace_out <> None then Fom_obs.Sink.enable ();
    Printf.printf
      "First-order superscalar model reproduction harness (scale %.2f, %d exhibits, %d jobs)\n"
      options.scale (List.length selected) jobs;
    let started = Fom_obs.Clock.now_ns () in
    let timed = run_pass ~jobs ~csv_dir:options.csv_dir ~scale:options.scale selected in
    let total = seconds_since started in
    (match options.json with
    | None -> ()
    | Some path ->
        Fom_util.Json.write_file ~path
          (json_report ~options ~jobs ~timed ~total_seconds:total);
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
        match baseline_regressions ~timed doc with
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
