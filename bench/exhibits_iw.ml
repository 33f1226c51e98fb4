(* Table 1 and Figures 4, 5, 6, 8: the IW characteristic. *)

module Table = Fom_util.Table
module Fit = Fom_util.Fit
module Iw_curve = Fom_analysis.Iw_curve
module Iw = Fom_model.Iw_characteristic
module Transient = Fom_model.Transient

let log2 x = Float.log x /. Float.log 2.0

(* Table 1: power-law parameters and average latency. The paper lists
   gzip (1.3 / 0.5 / 1.5), vortex (1.2 / 0.7 / 1.6) and vpr
   (1.7 / 0.3 / 2.2); all twelve are printed, the paper's three
   first. *)
let table1 ctx =
  Context.warm_characterizations ctx Context.names;
  Context.heading "Table 1: Power-law parameters (alpha, beta) and average latency";
  Context.note
    "Paper values for its SPECint binaries: gzip 1.3/0.5/1.5, vortex 1.2/0.7/1.6, vpr 1.7/0.3/2.2.";
  let ordered =
    [ "gzip"; "vortex"; "vpr" ]
    @ List.filter (fun n -> not (List.mem n [ "gzip"; "vortex"; "vpr" ])) Context.names
  in
  let rows =
    List.map
      (fun name ->
        let curve, _, inputs = Context.characterization ctx name in
        [
          name;
          Table.float_cell ~decimals:2 (Iw_curve.alpha curve);
          Table.float_cell ~decimals:2 (Iw_curve.beta curve);
          Table.float_cell ~decimals:2 inputs.Fom_model.Inputs.avg_latency;
          Table.float_cell ~decimals:3 curve.Iw_curve.fit.Fit.r2;
        ])
      ordered
  in
  Context.table ctx ~name:"table1" ~header:[ "benchmark"; "alpha"; "beta"; "avg latency"; "fit r2" ] rows

(* Figure 4: log-log IW curves for all benchmarks, unit latency,
   unbounded issue. *)
let fig4 ctx =
  Context.warm_characterizations ctx Context.names;
  Context.heading "Figure 4: IW curves, log2(issue rate) vs log2(window), unit latency";
  let curves =
    List.map
      (fun name ->
        let c, _, _ = Context.characterization ctx name in
        (name, c))
      Context.names
  in
  let windows = Iw_curve.default_windows in
  let header = "log2(W)" :: List.map fst curves in
  let rows =
    List.map
      (fun w ->
        Table.float_cell ~decimals:0 (log2 (float_of_int w))
        :: List.map
             (fun (_, curve) ->
               let point = List.find (fun p -> p.Iw_curve.window = w) curve.Iw_curve.points in
               Table.float_cell ~decimals:2 (log2 point.Iw_curve.ipc))
             curves)
      windows
  in
  Context.table ctx ~name:"fig4" ~header rows

(* Figure 5: the linear fits on log-log axes for the paper's three
   illustrative benchmarks, measured points next to the fit line. *)
let fig5 ctx =
  Context.warm_characterizations ctx [ "gzip"; "vortex"; "vpr" ];
  Context.heading "Figure 5: linear IW fits for gzip, vortex, vpr (log2 scale)";
  List.iter
    (fun name ->
      let curve, _, _ = Context.characterization ctx name in
      let fit = curve.Iw_curve.fit in
      Context.note "%s: log2(I) = %.2f * log2(W) + %.2f   (r2 %.3f)" name fit.Fit.beta
        (log2 fit.Fit.alpha) fit.Fit.r2;
      let rows =
        List.map
          (fun p ->
            let w = float_of_int p.Iw_curve.window in
            [
              Table.float_cell ~decimals:0 (log2 w);
              Table.float_cell ~decimals:2 (log2 p.Iw_curve.ipc);
              Table.float_cell ~decimals:2 (log2 (Fit.eval_power_law fit w));
            ])
          curve.Iw_curve.points
      in
      Context.table ctx ~name:("fig5-" ^ name) ~header:[ "log2(W)"; "measured"; "fit" ] rows)
    [ "gzip"; "vortex"; "vpr" ]

(* Figure 6: limiting the issue width makes the curves saturate. *)
let fig6 ctx =
  Context.heading "Figure 6: IW characteristic with limited issue width (gcc)";
  let packed = Context.packed ctx "gcc" in
  let windows = Iw_curve.default_windows in
  let limits = [ None; Some 8; Some 4; Some 2 ] in
  let label = function None -> "unlimited" | Some k -> Printf.sprintf "width %d" k in
  (* All limit x window points are independent idealized simulations:
     one pool task each, results folded back in deterministic order. *)
  let tasks = List.concat_map (fun l -> List.map (fun w -> (l, w)) windows) limits in
  let ipcs =
    Fom_exec.Pool.map (Context.pool ctx)
      ~f:(fun (issue_limit, window) ->
        Fom_analysis.Iw_sim.ipc_of_packed ?issue_limit packed ~window ~n:ctx.Context.n_iw)
      tasks
  in
  let per_limit = List.length windows in
  let curves =
    List.mapi
      (fun i issue_limit ->
        (label issue_limit, List.filteri (fun k _ -> k / per_limit = i) ipcs))
      limits
  in
  let header = "window" :: List.map fst curves in
  let rows =
    List.mapi
      (fun i w ->
        string_of_int w
        :: List.map (fun (_, ipcs) -> Table.float_cell ~decimals:2 (List.nth ipcs i)) curves)
      windows
  in
  Context.table ctx ~name:"fig6" ~header rows;
  Context.note "The limited curves follow the unlimited one, then saturate at the width."

(* Figure 8: the isolated branch-misprediction transient on the
   square-law characteristic (alpha 1, beta 0.5, width 4, 5-stage
   front end). Paper: drain 2.1, ramp-up 2.7, fill 4.9, total 9.7. *)
let fig8 ctx =
  Context.heading "Figure 8: isolated branch misprediction transient (alpha=1, beta=0.5)";
  let iw = Iw.make ~alpha:1.0 ~beta:0.5 ~issue_width:4.0 () in
  let drain = Transient.drain iw ~window:48 in
  let ramp = Transient.ramp_up iw ~window:48 in
  let depth = 5.0 in
  Context.note "drain penalty    %5.2f cycles  (paper: 2.1)" drain.Transient.penalty;
  Context.note "pipeline refill  %5.2f cycles  (paper: 4.9)" depth;
  Context.note "ramp-up penalty  %5.2f cycles  (paper: 2.7)" ramp.Transient.penalty;
  Context.note "total isolated   %5.2f cycles  (paper: 9.7)"
    (drain.Transient.penalty +. depth +. ramp.Transient.penalty);
  let interval = Transient.interval iw ~window:48 ~pipeline_depth:5 ~instructions:100 in
  let rows =
    Array.to_list
      (Array.mapi
         (fun cycle rate -> [ string_of_int cycle; Table.float_cell ~decimals:2 rate ])
         interval.Transient.issue_per_cycle)
  in
  Context.note "issue rate per cycle across the transient:";
  Context.table ctx ~name:"fig8" ~header:[ "cycle"; "issued" ] rows
