(* Ablation benches for the design choices called out in DESIGN.md:
   the long-miss grouping method, the branch-penalty mode, and the
   rob-fill correction. *)

module Table = Fom_util.Table
module Stats = Fom_uarch.Stats
module Params = Fom_model.Params
module Cpi = Fom_model.Cpi
module Profile = Fom_analysis.Profile

let pct model sim = (model -. sim) /. sim *. 100.0

(* How much each refinement contributes to Figure 15 accuracy. *)
let model_variants ctx =
  Context.heading "Ablation: model variants vs simulation (CPI error %)";
  let header =
    [ "benchmark"; "refined"; "paper grouping"; "paper branch 7.5"; "paper delay" ]
  in
  let sums = Array.make 4 0.0 in
  let rows =
    List.map
      (fun name ->
        let sim = Stats.cpi (Context.sim ctx Context.real name) in
        let _, _, aware = Context.characterization ctx name in
        let _, _, naive = Context.characterization ~grouping:Profile.Paper_naive ctx name in
        let refined = Cpi.total (Cpi.evaluate Params.baseline aware) in
        let with_naive = Cpi.total (Cpi.evaluate Params.baseline naive) in
        let with_const =
          Cpi.total (Cpi.evaluate ~branch_mode:Cpi.Paper_constant Params.baseline aware)
        in
        let with_delay =
          Cpi.total (Cpi.evaluate ~dcache_mode:Cpi.Paper_delay Params.baseline aware)
        in
        let errs = [| pct refined sim; pct with_naive sim; pct with_const sim; pct with_delay sim |] in
        Array.iteri (fun i e -> sums.(i) <- sums.(i) +. Float.abs e) errs;
        name :: List.map (fun e -> Table.float_cell ~decimals:1 e) (Array.to_list errs))
      Context.names
  in
  Context.table ctx ~name:"ablation-model" ~header rows;
  let n = float_of_int (List.length Context.names) in
  Context.note
    "mean |err|: refined %.1f%%, paper-naive grouping %.1f%%, 7.5-cycle branch %.1f%%, no rob-fill %.1f%%"
    (sums.(0) /. n) (sums.(1) /. n) (sums.(2) /. n) (sums.(3) /. n)

(* Sensitivity of the power-law fit to the measured window range. *)
let fit_windows ctx =
  Context.heading "Ablation: power-law fit vs window range (gzip)";
  let packed = Context.packed ctx "gzip" in
  let ranges =
    [
      ("4..32", [ 4; 8; 16; 32 ]);
      ("4..256", [ 4; 8; 16; 32; 64; 128; 256 ]);
      ("32..256", [ 32; 64; 128; 256 ]);
    ]
  in
  let rows =
    List.map
      (fun (label, windows) ->
        let curve = Fom_analysis.Iw_curve.measure_packed ~windows ~n:ctx.Context.n_iw packed in
        [
          label;
          Table.float_cell ~decimals:2 (Fom_analysis.Iw_curve.alpha curve);
          Table.float_cell ~decimals:2 (Fom_analysis.Iw_curve.beta curve);
          Table.float_cell ~decimals:3 curve.Fom_analysis.Iw_curve.fit.Fom_util.Fit.r2;
        ])
      ranges
  in
  Context.table ctx ~name:"ablation-fit" ~header:[ "windows"; "alpha"; "beta"; "r2" ] rows

(* Little's law check: measured issue rate at real latencies vs the
   unit-latency rate divided by the measured mean latency. *)
let littles_law ctx =
  Context.heading "Ablation: Little's-law latency correction accuracy";
  let header = [ "benchmark"; "measured I_L"; "I_1 / L"; "err%" ] in
  let rows =
    List.map
      (fun name ->
        let packed = Context.packed ctx name in
        let _, profile, _ = Context.characterization ctx name in
        let window = 64 in
        let unit = Fom_analysis.Iw_sim.ipc_of_packed packed ~window ~n:ctx.Context.n_iw in
        let real =
          Fom_analysis.Iw_sim.ipc_of_packed ~latencies:Fom_isa.Latency.default packed ~window
            ~n:ctx.Context.n_iw
        in
        (* The idealized simulation has perfect caches, so compare
           against the pure mix-weighted latency (no short misses). *)
        let mean_latency =
          Fom_isa.Latency.average Fom_isa.Latency.default (Profile.class_fraction profile)
        in
        let predicted = unit /. mean_latency in
        [
          name;
          Table.float_cell real;
          Table.float_cell predicted;
          Table.float_cell ~decimals:1 (pct predicted real);
        ])
      [ "gzip"; "vortex"; "vpr"; "mcf" ]
  in
  Context.table ctx ~name:"ablation-little" ~header rows
