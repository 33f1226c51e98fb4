(* Figures 2, 9, 11, 14: miss-event independence and per-event
   penalties from the differencing methodology. *)

module Table = Fom_util.Table
module Stats = Fom_uarch.Stats
module Config = Fom_uarch.Config
module Params = Fom_model.Params
module Cpi = Fom_model.Cpi
module Penalties = Fom_model.Penalties
module Inputs = Fom_model.Inputs

(* Figure 2: miss-event penalties add independently. Five simulations
   per benchmark: all-real, all-ideal, and each structure real in
   isolation; the sum of isolated penalties approximates the real
   machine, and compensating branch/I-miss events that overlap a long
   D-miss improves it slightly. *)
let fig2 ctx =
  Context.warm_sims ctx
    (List.concat_map
       (fun name ->
         [
           (Context.ideal, name);
           (Context.real, name);
           (Context.bp_only, name);
           (Context.icache_only, name);
           (Context.dcache_only, name);
         ])
       Context.names);
  Context.heading "Figure 2: independence of miss-event penalties (IPC)";
  let header = [ "benchmark"; "combined"; "independent"; "err%"; "compensated"; "err%" ] in
  let ind_errs = ref [] and comp_errs = ref [] in
  let rows =
    List.map
      (fun name ->
        let ideal = Context.sim ctx Context.ideal name in
        let real = Context.sim ctx Context.real name in
        let bp = Context.sim ctx Context.bp_only name in
        let ic = Context.sim ctx Context.icache_only name in
        let dc = Context.sim ctx Context.dcache_only name in
        let cycles (s : Stats.t) = float_of_int s.Stats.cycles in
        let bp_penalty = cycles bp -. cycles ideal in
        let ic_penalty = cycles ic -. cycles ideal in
        let dc_penalty = cycles dc -. cycles ideal in
        let independent = cycles ideal +. bp_penalty +. ic_penalty +. dc_penalty in
        (* Compensation: drop the penalty share of branch and I-cache
           events that the real run saw under an outstanding long
           D-miss. *)
        let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
        let br_overlap =
          frac real.Stats.mispredictions_under_long_miss real.Stats.branch_mispredictions
        in
        let ic_overlap =
          frac real.Stats.imisses_under_long_miss
            (real.Stats.l1i_misses + real.Stats.l2i_misses)
        in
        let compensated =
          independent -. (br_overlap *. bp_penalty) -. (ic_overlap *. ic_penalty)
        in
        let insns = float_of_int real.Stats.instructions in
        let real_ipc = Stats.ipc real in
        let ind_ipc = insns /. independent in
        let comp_ipc = insns /. compensated in
        let err x = (x -. real_ipc) /. real_ipc *. 100.0 in
        ind_errs := Float.abs (err ind_ipc) :: !ind_errs;
        comp_errs := Float.abs (err comp_ipc) :: !comp_errs;
        [
          name;
          Table.float_cell real_ipc;
          Table.float_cell ind_ipc;
          Table.float_cell ~decimals:1 (err ind_ipc);
          Table.float_cell comp_ipc;
          Table.float_cell ~decimals:1 (err comp_ipc);
        ])
      Context.names
  in
  Context.table ctx ~name:"fig2" ~header rows;
  let mean l = Fom_util.Stats.mean (Array.of_list l) in
  Context.note "mean |error|: independent %.1f%% (paper 5%%), compensated %.1f%% (paper 4%%)"
    (mean !ind_errs) (mean !comp_errs);
  if mean !comp_errs > mean !ind_errs then
    Context.note
      "note: full compensation overshoots here — the synthetic memory-bound traces spend more \
       time under outstanding long misses than the paper's SPEC runs, and overlapped events \
       are only partially free. The final model follows the paper and does not compensate."

(* Figure 9: measured penalty per branch misprediction for 5- and
   9-stage front ends. The paper: typically 6.4 to 10 cycles at depth
   5 (vpr 14.7) — more than the pipeline depth. *)
let fig9 ctx =
  Context.parallel ctx
    (List.concat_map
       (fun name ->
         (fun () -> ignore (Context.characterization ctx name))
         :: List.concat_map
              (fun depth ->
                List.map
                  (fun config () ->
                    ignore (Context.sim ctx (Config.with_depth depth config) name))
                  [ Context.bp_only; Context.ideal ])
              [ 5; 9 ])
       Context.names);
  Context.heading "Figure 9: penalty per branch misprediction, 5 vs 9 front-end stages";
  let penalty name depth =
    let with_bp = Context.sim ctx (Config.with_depth depth Context.bp_only) name in
    let base = Context.sim ctx (Config.with_depth depth Context.ideal) name in
    let events = with_bp.Stats.branch_mispredictions in
    if events = 0 then 0.0
    else float_of_int (with_bp.Stats.cycles - base.Stats.cycles) /. float_of_int events
  in
  let rows =
    List.map
      (fun name ->
        let p5 = penalty name 5 and p9 = penalty name 9 in
        let _, _, inputs = Context.characterization ctx name in
        let iw = Cpi.characteristic Params.baseline inputs in
        let model5 =
          Penalties.branch_misprediction
            (Penalties.transients iw Params.baseline)
            Params.baseline ~burst:(Inputs.mispred_burst_mean inputs)
        in
        [
          name;
          Table.float_cell ~decimals:1 p5;
          Table.float_cell ~decimals:1 p9;
          Table.float_cell ~decimals:1 model5;
        ])
      Context.names
  in
  Context.table ctx ~name:"fig9"
    ~header:[ "benchmark"; "sim depth 5"; "sim depth 9"; "model depth 5" ] rows;
  Context.note "The penalty exceeds the front-end depth (paper observation 1)."

(* Figure 11: the I-cache miss penalty is about the fill delay and
   independent of the front-end depth. *)
let fig11 ctx =
  Context.parallel ctx
    (List.concat_map
       (fun name ->
         List.concat_map
           (fun depth ->
             List.map
               (fun config () -> ignore (Context.sim ctx (Config.with_depth depth config) name))
               [ Context.icache_only; Context.ideal ])
           [ 5; 9 ])
       Context.names);
  Context.heading "Figure 11: penalty per L1 I-cache miss, 5 vs 9 front-end stages (delay 8)";
  let penalty name depth =
    let with_ic = Context.sim ctx (Config.with_depth depth Context.icache_only) name in
    let base = Context.sim ctx (Config.with_depth depth Context.ideal) name in
    let events = with_ic.Stats.l1i_misses + with_ic.Stats.l2i_misses in
    if events < 20 then None
    else Some (float_of_int (with_ic.Stats.cycles - base.Stats.cycles) /. float_of_int events)
  in
  let skipped = ref [] in
  let rows =
    List.filter_map
      (fun name ->
        match (penalty name 5, penalty name 9) with
        | Some p5, Some p9 ->
            Some [ name; Table.float_cell ~decimals:1 p5; Table.float_cell ~decimals:1 p9 ]
        | _ ->
            skipped := name :: !skipped;
            None)
      Context.names
  in
  Context.table ctx ~name:"fig11" ~header:[ "benchmark"; "sim depth 5"; "sim depth 9" ] rows;
  if !skipped <> [] then
    Context.note "negligible I-cache misses (as in the paper): %s"
      (String.concat ", " (List.rev !skipped));
  Context.note "The penalty stays near the 8-cycle fill delay at both depths (observation 2)."

(* Figure 14: penalty per long data-cache miss, simulation vs model
   (eq. 8), on the paper's 128K-L1D / 200-cycle configuration. *)
let fig14 ctx =
  Context.heading "Figure 14: penalty per long D-cache miss, simulation vs model (eq. 8)";
  let params = { Params.baseline with Params.long_delay = 200 } in
  (* Each benchmark's row needs two sims plus a characterization
     against the Figure 14 hierarchy. Every one of those is its own
     pool task — three per benchmark, not one — so the
     slowest benchmark's characterization no longer serializes the two
     sims behind it, and the memo futures guarantee nothing is
     computed twice even where the warm list overlaps other
     exhibits. *)
  Context.parallel ctx
    (List.concat_map
       (fun name ->
         [
           (fun () -> ignore (Context.sim ctx Context.fig14_machine name));
           (fun () -> ignore (Context.sim ctx Context.ideal name));
           (fun () ->
             (* Model inputs for this hierarchy: profile with the
                Figure 14 cache so long misses and their grouping
                match. *)
             ignore (Context.characterization ~cache:Fom_cache.Hierarchy.fig14 ~params ctx name));
         ])
       Context.names);
  let rows =
    List.filter_map
      (fun name ->
        let faulty = Context.sim ctx Context.fig14_machine name in
        let base = Context.sim ctx Context.ideal name in
        let events = faulty.Stats.long_data_misses in
        if events < 20 then None
        else
          let sim_penalty =
            float_of_int (faulty.Stats.cycles - base.Stats.cycles) /. float_of_int events
          in
          let _, _, inputs =
            Context.characterization ~cache:Fom_cache.Hierarchy.fig14 ~params ctx name
          in
          let factor = Inputs.long_group_factor inputs in
          let iw = Cpi.characteristic params inputs in
          let rob_fill = Penalties.rob_fill_estimate iw params in
          let model = Penalties.dcache_long_miss ~rob_fill params ~group_factor:factor in
          let paper_model = Penalties.dcache_long_miss params ~group_factor:factor in
          Some
            [
              name;
              Table.float_cell ~decimals:1 sim_penalty;
              Table.float_cell ~decimals:1 model;
              Table.float_cell ~decimals:1 paper_model;
              Table.float_cell ~decimals:2 factor;
            ])
      Context.names
  in
  Context.table ctx ~name:"fig14"
    ~header:[ "benchmark"; "simulation"; "model"; "model (paper eq.8)"; "group factor" ]
    rows;
  Context.note "Benchmarks with too few long misses on the 128K L1D are omitted."
