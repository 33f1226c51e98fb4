(* Shared state for the experiment harness: workload programs, scale
   settings, the domain pool, and memoized simulation/characterization
   results so that exhibits sharing a configuration (e.g. the
   all-ideal baseline) pay for it once.

   Memoization is through Fom_exec.Memo future cells: the first
   demander of a key computes, concurrent demanders wait for that one
   result (helping drain the pool while they do) — each sim and each
   characterization runs exactly once per process regardless of
   --jobs. Nothing persists across processes: a full rerun takes
   seconds, and recomputing is the only way to be sure a result
   matches the code that printed it. *)

module Config = Fom_uarch.Config
module Stats = Fom_uarch.Stats
module Hierarchy = Fom_cache.Hierarchy
module Predictor = Fom_branch.Predictor
module Params = Fom_model.Params
module Pool = Fom_exec.Pool
module Memo = Fom_exec.Memo

type t = {
  n_sim : int;  (** instructions per detailed simulation *)
  n_profile : int;  (** instructions per functional profile *)
  n_iw : int;  (** instructions per IW-curve point *)
  csv_dir : string option;  (** where to mirror tables as CSV files *)
  pool : Pool.t;  (** worker domains shared by every exhibit *)
  programs : (string * Fom_trace.Program.t) list;
  packs : (string, Fom_trace.Packed.t) Memo.t;
  sims : (string, Stats.t) Memo.t;
  inputs :
    (string, Fom_analysis.Iw_curve.t * Fom_analysis.Profile.t * Fom_model.Inputs.t) Memo.t;
}

let create ?csv_dir ?jobs ~scale () =
  Fom_check.Checker.ensure ~code:"FOM-I030" ~path:"bench.scale" (scale > 0.0)
    "scale factor must be positive";
  (match csv_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | Some _ | None -> ());
  let s x = int_of_float (float_of_int x *. scale) in
  let pool = Pool.create ?jobs () in
  {
    n_sim = s 200_000;
    n_profile = s 200_000;
    n_iw = s 30_000;
    csv_dir;
    pool;
    programs =
      List.map
        (fun config -> (config.Fom_trace.Config.name, Fom_trace.Program.generate config))
        Fom_workloads.Spec2000.all;
    packs = Memo.create ~pool ();
    sims = Memo.create ~pool ();
    inputs = Memo.create ~pool ();
  }

let shutdown t = Pool.shutdown t.pool
let pool t = t.pool
let jobs t = Pool.jobs t.pool

let names t = List.map fst t.programs
let program t name = List.assoc name t.programs

(* Machine variants used across exhibits. *)
let ideal = Config.ideal Config.baseline
let real = Config.baseline
let bp_only = Config.with_predictor Predictor.default_spec ideal
let icache_only = Config.with_cache Hierarchy.ideal_except_l1i ideal
let dcache_only = Config.with_cache Hierarchy.ideal_except_data ideal
let fig14_machine = Config.with_cache Hierarchy.fig14 ideal

(* One packed trace per benchmark, shared by every simulation variant
   and the characterization passes. The margin past the longest pass
   covers the machine's fetch-ahead (the in-flight span of every
   machine variant the exhibits build, a few hundred instructions) and
   the IW sweep's window overhang. *)
let packed_margin = 8192

let packed t name =
  Memo.get t.packs name (fun () ->
      let n =
        Stdlib.max (Stdlib.max t.n_sim t.n_profile) (t.n_iw + 512) + packed_margin
      in
      Fom_trace.Packed.of_source (Fom_trace.Source.of_program (program t name)) ~n)

let sim t ~variant ~config name =
  let key = Printf.sprintf "%s/%s/%d" variant name t.n_sim in
  Memo.get t.sims key (fun () ->
      Fom_uarch.Simulate.run_packed config (packed t name) ~n:t.n_sim)

(* Characterize [name] under an optional non-baseline cache hierarchy
   and model parameters (Figure 14 profiles against its own 128K-L1D /
   200-cycle machine). [tag] keys the memo, so two tags describing
   identical configurations each compute their own result. *)
let characterization_for ?(grouping = Fom_analysis.Profile.Dependence_aware) ?cache ~tag
    ~params t name =
  let key =
    Printf.sprintf "%s/%s/%s" tag name
      (match grouping with
      | Fom_analysis.Profile.Dependence_aware -> "aware"
      | Fom_analysis.Profile.Paper_naive -> "naive")
  in
  Memo.get t.inputs key (fun () ->
      (* The pool is passed down so the IW-curve points parallelize
         across windows as well as benchmarks; nested maps are safe
         because a waiting caller drives the pool itself. *)
      Fom_analysis.Characterize.curve_and_inputs_of_packed ~pool:t.pool
        ~iw_instructions:t.n_iw ?cache ~grouping ~params (packed t name) ~n:t.n_profile)

let characterization ?grouping t name =
  characterization_for ?grouping ~tag:"base" ~params:Params.baseline t name

(* Run independent thunks on the pool; exhibits use this to warm the
   memo caches in parallel before printing rows in their fixed
   sequential order. Thanks to the memo futures, overlapping warm
   lists (or a warm racing a direct demand) never duplicate work. *)
let parallel t thunks = ignore (Pool.map t.pool ~f:(fun thunk -> thunk ()) thunks)

let warm_sims t specs =
  parallel t
    (List.map (fun (variant, config, name) () -> ignore (sim t ~variant ~config name)) specs)

let warm_characterizations ?grouping t names =
  parallel t (List.map (fun name () -> ignore (characterization ?grouping t name)) names)

let heading title = print_string (Fom_util.Table.heading title)

let note fmt = Printf.printf (fmt ^^ "\n")

(* Print a table and, when --csv is active, mirror it to
   <csv_dir>/<name>.csv. *)
let table t ~name ~header rows =
  Fom_util.Table.print ~header rows;
  Option.iter
    (fun dir ->
      Fom_util.Csv.write_file ~path:(Filename.concat dir (name ^ ".csv")) ~header rows)
    t.csv_dir
