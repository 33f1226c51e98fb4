(* Figures 17, 18, 19: the Section 6 trend studies. *)

module Table = Fom_util.Table
module Trends = Fom_model.Trends

let widths_17 = [ 2; 3; 4; 8 ]
let depth_samples = [ 1; 2; 5; 10; 15; 20; 30; 40; 55; 70; 85; 100 ]
let all_depths = List.init 100 (fun i -> i + 1)

(* Figure 17a: IPC vs front-end depth; the advantage of wider issue
   erodes with depth. *)
let fig17a ctx =
  Context.heading "Figure 17a: IPC vs front-end pipeline depth (1 branch in 5, 5% mispredicted)";
  let rows_by_width = Trends.ipc_vs_depth ~widths:widths_17 ~depths:depth_samples () in
  let header = "depth" :: List.map (fun w -> Printf.sprintf "issue %d" w) widths_17 in
  let rows =
    List.map
      (fun depth ->
        string_of_int depth
        :: List.map
             (fun width -> Table.float_cell ~decimals:2 (List.assoc depth (List.assoc width rows_by_width)))
             widths_17)
      depth_samples
  in
  Context.table ctx ~name:"fig17a" ~header rows

(* Figure 17b: BIPS with cycle time 8200/depth + 90 ps; the optimum
   depth (paper: about 55 stages for width 3) shifts shorter as issue
   widens. *)
let fig17b ctx =
  Context.heading "Figure 17b: BIPS vs front-end depth (8200 ps logic, 90 ps overhead)";
  let rows_by_width = Trends.bips_vs_depth ~widths:widths_17 ~depths:all_depths () in
  let header = "depth" :: List.map (fun w -> Printf.sprintf "issue %d" w) widths_17 in
  let rows =
    List.map
      (fun depth ->
        string_of_int depth
        :: List.map
             (fun width -> Table.float_cell ~decimals:2 (List.assoc depth (List.assoc width rows_by_width)))
             widths_17)
      depth_samples
  in
  Context.table ctx ~name:"fig17b" ~header rows;
  List.iter
    (fun width ->
      Context.note "issue %d: optimal front-end depth %d stages" width
        (Trends.optimal_depth (List.assoc width rows_by_width)))
    widths_17;
  Context.note "(paper/Sprangle-Carmean: about 55 stages at width 3, shorter for wider issue)"

(* Figure 18: instructions between mispredictions needed to spend a
   given fraction of cycles within 12.5% of the issue width; the
   requirement grows as the square of the width. *)
let fig18 ctx =
  Context.heading
    "Figure 18: instructions between mispredictions vs time near the issue width";
  let widths = [ 4; 8; 16 ] in
  let fractions = [ 0.1; 0.2; 0.3; 0.4; 0.5 ] in
  let header =
    "% time near width"
    :: List.map (fun w -> Printf.sprintf "issue %d (>=%.1f)" w (0.875 *. float_of_int w)) widths
  in
  let rows =
    List.map
      (fun fraction ->
        Table.float_cell ~decimals:0 (fraction *. 100.0)
        :: List.map
             (fun width ->
               string_of_int (Trends.mispred_distance_for_fraction ~width ~fraction ()))
             widths)
      fractions
  in
  Context.table ctx ~name:"fig18" ~header rows;
  let n lo = Trends.mispred_distance_for_fraction ~width:lo ~fraction:0.3 () in
  Context.note "doubling the width multiplies the requirement by %.1fx and then %.1fx (paper: 4x)"
    (float_of_int (n 8) /. float_of_int (n 4))
    (float_of_int (n 16) /. float_of_int (n 8))

(* Figure 19 cross-validation: the *measured* issue ramp after
   misprediction resolutions in the detailed simulator, against the
   analytic trajectory on the workload's own characteristic. The
   paper derives the ramp analytically; recording it from simulation
   checks the transient engine directly. *)
let fig19_sim ctx =
  Context.heading "Figure 19 (validation): measured vs analytic issue ramp (gzip)";
  let name = "gzip" in
  let horizon = 20 in
  let stats, record =
    Fom_uarch.Simulate.run_recorded Context.bp_only (Context.packed ctx name) ~n:ctx.Context.n_sim
  in
  let cycles = stats.Fom_uarch.Stats.cycles in
  (* Per-cycle issue counts (-1: never issued). *)
  let issued = Array.make cycles 0 in
  Array.iter (fun c -> if c >= 0 then issued.(c) <- issued.(c) + 1) record.issue;
  let sums = Array.make horizon 0.0 in
  let samples = ref 0 in
  (* Average the issue rate over the [horizon] cycles following each
     resolution — fetch restarts when a mispredicted branch completes —
     skipping warmup and truncated windows. *)
  Array.iteri
    (fun i mispredicted ->
      let r = record.complete.(i) in
      if mispredicted && r > 1000 && r + horizon < cycles then begin
        incr samples;
        for k = 0 to horizon - 1 do
          sums.(k) <- sums.(k) +. float_of_int issued.(r + k)
        done
      end)
    record.mispredicted;
  let measured = Array.map (fun s -> s /. float_of_int (Stdlib.max 1 !samples)) sums in
  let _, _, inputs = Context.characterization ctx name in
  let iw =
    Fom_model.Iw_characteristic.make ~alpha:inputs.Fom_model.Inputs.alpha
      ~beta:inputs.Fom_model.Inputs.beta ~avg_latency:inputs.Fom_model.Inputs.avg_latency ()
  in
  let interval =
    Stdlib.max 10
      (int_of_float (1.0 /. Float.max 1e-6 inputs.Fom_model.Inputs.mispredictions_per_instr))
  in
  let analytic = Trends.issue_trajectory ~iw ~interval ~width:4 () in
  let rows =
    List.init horizon (fun c ->
        [
          string_of_int c;
          Table.float_cell ~decimals:2 measured.(c);
          (if c < Array.length analytic then Table.float_cell ~decimals:2 analytic.(c) else "-");
        ])
  in
  Context.table ctx ~name:"fig19-sim"
    ~header:[ "cycle after resolution"; "sim issue rate"; "model issue rate" ]
    rows;
  Context.note
    "%d resolution windows averaged; both show dead front-end fill then the leaky-bucket ramp."
    !samples

(* Figure 19: issue ramp between two mispredictions. *)
let fig19 ctx =
  Context.heading "Figure 19: per-cycle issue rate between two mispredictions";
  let widths = [ 2; 3; 4; 8 ] in
  let trajectories = List.map (fun w -> (w, Trends.issue_trajectory ~width:w ())) widths in
  let cycles = List.init 40 (fun i -> i) in
  let header = "cycle" :: List.map (fun w -> Printf.sprintf "issue %d" w) widths in
  let rows =
    List.map
      (fun c ->
        string_of_int c
        :: List.map
             (fun (_, t) ->
               if c < Array.length t then Table.float_cell ~decimals:2 t.(c) else "-")
             trajectories)
      cycles
  in
  Context.table ctx ~name:"fig19" ~header rows;
  List.iter
    (fun (w, t) ->
      Context.note "issue %d peaks at %.2f instructions per cycle" w
        (Array.fold_left Float.max 0.0 t))
    trajectories
