(* Shared state for the experiment harness: scale settings, the domain
   pool, one packed trace per benchmark, and memoized simulation and
   characterization results.

   Results are memoized by what determines them, not by a name the
   caller makes up: a simulation by its machine configuration, the
   benchmark and the instruction count; a characterization by its
   grouping, cache hierarchy, data TLB, model parameters and the
   benchmark. The differencing exhibits (Figures 2, 9, 11, 14) keep
   returning to the same few machines — the all-ideal baseline, one
   structure real — and each of those machines is simulated once per
   benchmark however many exhibits ask for it, and under whatever
   construction ([Config.with_depth 5 bp_only] is [bp_only]).

   Memoization is through Fom_exec.Memo future cells: the first
   demander of a key computes, concurrent demanders wait for that one
   result (helping drain the pool while they do) — each sim and each
   characterization runs exactly once per process regardless of
   --jobs. Nothing persists across processes: a full rerun takes
   seconds, and recomputing is the only way to be sure a result
   matches the code that printed it.

   Below these memos, the characterizations of one benchmark share
   more than the packing: Characterize keeps, per packing, the IW
   curve and one cache and predictor replay per memory system, so
   the exhibits that characterize one benchmark under several ROB
   sizes, groupings or parameters run one IW sweep and one replay per
   cache hierarchy and dTLB. That sharing lives as long as the
   packing, which [packed] keeps for the whole run. *)

module Config = Fom_uarch.Config
module Stats = Fom_uarch.Stats
module Hierarchy = Fom_cache.Hierarchy
module Predictor = Fom_branch.Predictor
module Params = Fom_model.Params
module Profile = Fom_analysis.Profile
module Pool = Fom_exec.Pool
module Memo = Fom_exec.Memo

type t = {
  n_sim : int;  (** instructions per detailed simulation *)
  n_profile : int;  (** instructions per functional profile *)
  n_iw : int;  (** instructions per IW-curve point *)
  csv_dir : string option;  (** where to mirror tables as CSV files *)
  pool : Pool.t;  (** worker domains shared by every exhibit *)
  packs : (string, Fom_trace.Packed.t) Memo.t;
  sims : (Config.t * string * int, Stats.t) Memo.t;
  inputs :
    ( Profile.grouping * Hierarchy.config * Fom_cache.Tlb.spec option * Params.t * string,
      Fom_analysis.Iw_curve.t * Profile.t * Fom_model.Inputs.t )
    Memo.t;
}

(* Every instruction count is the scale times a full-scale count; the
   smallest is the IW runs' and the ext-* sims run at half of n_sim. A
   scale that rounds one of them to nothing, or overflows the largest,
   is rejected before any exhibit runs. *)
let create ?csv_dir ?jobs ~scale () =
  let scaled x = float_of_int x *. scale in
  let s x = int_of_float (scaled x) in
  Fom_check.Checker.ensure ~code:"FOM-I030" ~path:"bench.scale"
    (Float.is_finite scale
    && scaled 200_000 < float_of_int max_int
    && s 30_000 >= 1
    && s 200_000 / 2 >= 1)
    (Printf.sprintf
       "scale factor %g must be finite and give every run between 1 and max_int instructions"
       scale);
  (match csv_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | Some _ | None -> ());
  let pool = Pool.create ?jobs () in
  {
    n_sim = s 200_000;
    n_profile = s 200_000;
    n_iw = s 30_000;
    csv_dir;
    pool;
    packs = Memo.create ~pool ();
    sims = Memo.create ~pool ();
    inputs = Memo.create ~pool ();
  }

let shutdown t = Pool.shutdown t.pool
let pool t = t.pool

let names = List.map (fun config -> config.Fom_trace.Config.name) Fom_workloads.Spec2000.all

(* Machine variants used across exhibits. *)
let ideal = Config.ideal Config.baseline
let real = Config.baseline
let bp_only = Config.with_predictor Predictor.default_spec ideal
let icache_only = Config.with_cache Hierarchy.ideal_except_l1i ideal
let dcache_only = Config.with_cache Hierarchy.ideal_except_data ideal
let fig14_machine = Config.with_cache Hierarchy.fig14 ideal

(* One packed trace per benchmark, shared by every simulation, every
   characterization and every IW measurement. The margin past the
   longest pass covers the machine's fetch-ahead (the in-flight span of
   every machine variant the exhibits build, a few hundred
   instructions) and the IW sweep's window overhang. *)
let packed_margin = 8192

let packed t name =
  Memo.get t.packs name (fun () ->
      let n =
        Stdlib.max (Stdlib.max t.n_sim t.n_profile) (t.n_iw + 512) + packed_margin
      in
      let program = Fom_trace.Program.generate (Fom_workloads.Spec2000.find name) in
      Fom_trace.Packed.of_source (Fom_trace.Source.of_program program) ~n)

(* [?n] defaults to n_sim; the extension exhibits run at n_sim / 2. *)
let sim ?n t config name =
  let n = Option.value n ~default:t.n_sim in
  Memo.get t.sims (config, name, n) (fun () ->
      Fom_uarch.Simulate.run_packed config (packed t name) ~n)

(* Characterize [name] under an optional non-baseline cache hierarchy,
   data TLB and model parameters (Figure 14 profiles against its own
   128K-L1D / 200-cycle machine, ext-tlb with a TLB). The defaults are
   spelled out so that passing one explicitly keys the same result. *)
let characterization ?(grouping = Profile.Dependence_aware) ?(cache = Hierarchy.baseline)
    ?dtlb ?(params = Params.baseline) t name =
  Memo.get t.inputs (grouping, cache, dtlb, params, name) (fun () ->
      (* The pool is passed down so the IW-curve points parallelize
         across windows as well as benchmarks; nested maps are safe
         because a waiting caller drives the pool itself. *)
      Fom_analysis.Characterize.curve_and_inputs_of_packed ~pool:t.pool
        ~iw_instructions:t.n_iw ~cache ~grouping ?dtlb ~params (packed t name)
        ~n:t.n_profile)

(* Run independent thunks on the pool; exhibits use this to warm the
   memo caches in parallel before printing rows in their fixed
   sequential order. Thanks to the memo futures, overlapping warm
   lists (or a warm racing a direct demand) never duplicate work. *)
let parallel t thunks = ignore (Pool.map t.pool ~f:(fun thunk -> thunk ()) thunks)

let warm_sims t specs =
  parallel t (List.map (fun (config, name) () -> ignore (sim t config name)) specs)

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
