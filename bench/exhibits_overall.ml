(* Figures 15 and 16: overall model accuracy and the CPI stack. *)

module Table = Fom_util.Table
module Stats = Fom_uarch.Stats
module Params = Fom_model.Params
module Cpi = Fom_model.Cpi

(* Figure 15: model CPI vs detailed simulation on the baseline
   machine. Paper: 5.8% average error, 13% worst case. *)
let fig15 ctx =
  (* Sims and characterizations for every benchmark are independent;
     warm both caches in one parallel batch before the rows print. *)
  Context.parallel ctx
    (List.concat_map
       (fun name ->
         [
           (fun () -> ignore (Context.sim ctx Context.real name));
           (fun () -> ignore (Context.characterization ctx name));
         ])
       Context.names);
  Context.heading "Figure 15: first-order model vs detailed simulation (CPI)";
  let errs = ref [] and paper_errs = ref [] in
  let rows =
    List.map
      (fun name ->
        let sim = Stats.cpi (Context.sim ctx Context.real name) in
        let _, _, inputs = Context.characterization ctx name in
        let model = Cpi.total (Cpi.evaluate Params.baseline inputs) in
        let paper_mode =
          Cpi.total
            (Cpi.evaluate ~branch_mode:Cpi.Paper_constant ~dcache_mode:Cpi.Paper_delay
               Params.baseline inputs)
        in
        let err = (model -. sim) /. sim *. 100.0 in
        let paper_err = (paper_mode -. sim) /. sim *. 100.0 in
        errs := Float.abs err :: !errs;
        paper_errs := Float.abs paper_err :: !paper_errs;
        [
          name;
          Table.float_cell sim;
          Table.float_cell model;
          Table.float_cell ~decimals:1 err;
          Table.float_cell paper_mode;
          Table.float_cell ~decimals:1 paper_err;
        ])
      Context.names
  in
  Context.table ctx ~name:"fig15"
    ~header:[ "benchmark"; "sim CPI"; "model CPI"; "err%"; "paper-mode CPI"; "err%" ]
    rows;
  let mean l = Fom_util.Stats.mean (Array.of_list l) in
  let max l = Fom_util.Stats.max (Array.of_list l) in
  Context.note
    "refined model: mean |err| %.1f%%, max %.1f%%; paper-mode (7.5-cycle branch, eq.8 delay): mean %.1f%%, max %.1f%%"
    (mean !errs) (max !errs) (mean !paper_errs) (max !paper_errs);
  Context.note "paper reports 5.8%% average and 13%% worst case on its SPECint runs"

(* Figure 16: the stacked CPI decomposition. *)
let fig16 ctx =
  Context.warm_characterizations ctx Context.names;
  Context.heading "Figure 16: CPI stack (model components)";
  let header = [ "benchmark"; "ideal"; "L1 I$"; "L2 I$"; "L2 D$"; "branch"; "total" ] in
  let rows =
    List.map
      (fun name ->
        let _, _, inputs = Context.characterization ctx name in
        let b = Cpi.evaluate Params.baseline inputs in
        [
          name;
          Table.float_cell b.Cpi.steady;
          Table.float_cell b.Cpi.l1i;
          Table.float_cell b.Cpi.l2i;
          Table.float_cell b.Cpi.dcache;
          Table.float_cell b.Cpi.branch;
          Table.float_cell (Cpi.total b);
        ])
      Context.names
  in
  Context.table ctx ~name:"fig16" ~header rows;
  List.iter
    (fun name ->
      let _, _, inputs = Context.characterization ctx name in
      let b = Cpi.evaluate Params.baseline inputs in
      let share = b.Cpi.dcache /. Cpi.total b *. 100.0 in
      Context.note "%s: long D-misses are %.0f%% of CPI" name share)
    [ "mcf"; "twolf" ];
  Context.note "(paper: about 70%% for mcf and 60%% for twolf)"
