module Iw = Iw_characteristic

let default_mispred_interval = 100

let clip_width iw width = { iw with Iw.issue_width = float_of_int width }

let default_iw = Iw.square_law

(* The studies' machine: a 48-entry window behind a five-stage front
   end. *)
let window = 48
let pipeline_depth = 5

(* Sprangle & Carmean's total logic depth and per-stage latch
   overhead, in picoseconds. *)
let total_logic_ps = 8200.0
let overhead_ps = 90.0

let interval_ipc iw ~interval ~width ~depth =
  let iw = clip_width iw width in
  (Transient.interval iw ~window ~pipeline_depth:depth ~instructions:interval).Transient.ipc

let ipc_vs_depth ?(iw = default_iw) ?(interval = default_mispred_interval) ~widths ~depths () =
  List.map
    (fun width ->
      ( width,
        List.map (fun depth -> (depth, interval_ipc iw ~interval ~width ~depth)) depths
      ))
    widths

let bips_vs_depth ?(iw = default_iw) ?(interval = default_mispred_interval) ~widths ~depths () =
  List.map
    (fun width ->
      ( width,
        List.map
          (fun depth ->
            let ipc = interval_ipc iw ~interval ~width ~depth in
            let cycle_ps = (total_logic_ps /. float_of_int depth) +. overhead_ps in
            (* instructions per picosecond times 1000 = BIPS *)
            (depth, ipc /. cycle_ps *. 1000.0))
          depths ))
    widths

let optimal_depth row =
  match row with
  | [] -> invalid_arg "Trends.optimal_depth: empty row"
  | (d0, b0) :: rest ->
      fst (List.fold_left (fun (d, b) (d', b') -> if b' > b then (d', b') else (d, b)) (d0, b0) rest)

let fraction_near_width iw ~window ~width ~instructions =
  let iw = clip_width iw width in
  let run =
    Transient.interval iw ~window ~pipeline_depth ~instructions
  in
  let threshold = 0.875 *. float_of_int width in
  let close =
    Array.fold_left
      (fun acc rate -> if rate >= threshold then acc + 1 else acc)
      0 run.Transient.issue_per_cycle
  in
  float_of_int close /. float_of_int (Array.length run.Transient.issue_per_cycle)

let mispred_distance_for_fraction ?(iw = default_iw) ~width ~fraction () =
  Fom_check.Checker.ensure ~code:"FOM-I030" ~path:"trends.fraction"
    (fraction > 0.0 && fraction < 1.0)
    "target fraction must be strictly between 0 and 1";
  let window = Int.max window (16 * width * width) in
  (* The fraction of near-peak cycles grows monotonically with the
     interval length: binary search for the smallest sufficient
     distance. *)
  let feasible n = fraction_near_width iw ~window ~width ~instructions:n >= fraction in
  let rec grow hi = if feasible hi || hi > 1_000_000 then hi else grow (2 * hi) in
  let hi = grow 16 in
  let rec bisect lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if feasible mid then bisect lo mid else bisect mid hi
  in
  bisect 1 hi

let issue_trajectory ?(iw = default_iw) ?(interval = default_mispred_interval) ~width () =
  let iw = clip_width iw width in
  (Transient.interval iw ~window ~pipeline_depth ~instructions:interval).Transient.issue_per_cycle
