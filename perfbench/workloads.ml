(* The benchmark's workloads. Each is a set-up (programs, phase
   schedule, pool) and a pass: a fixed amount of work the runner
   repeats for the measured seconds. Instruction counts are the
   exhibit harness's --quick ones (bench/main.exe --quick), so the
   accuracy figures equal its fig2 and fig15 output. *)

module A = Adapter

let n_sim = 40_000
let n_profile = 40_000
let n_iw = 6_000

(* The exhibit harness's packing length: the longest pass plus the
   machine's fetch-ahead margin. *)
let packed_len = Stdlib.max (Stdlib.max n_sim n_profile) (n_iw + 512) + 8192

type setup = { programs : (string * A.program) list; phases : A.source; pool : A.Pool.t }

type outcome = {
  errors : float list;  (** |error| % of each first-order estimate against simulation *)
  fig2_comp : float list;  (** fig2-sim only: compensated |error| % *)
}

type t = { name : string; jobs : int; pass : setup -> Probe.t -> outcome }

(* The seed sets the order in which presets (and so pool tasks) run.
   The presets keep their calibrated seeds: re-seeding them changes the
   simulated work, and with it wall time and model error, by far more
   than the bounds a run-to-run comparison can use. *)
let setup ~seed ~jobs =
  let rng = Random.State.make [| seed |] in
  let order =
    List.map (fun name -> (Random.State.bits rng, name)) A.preset_names
    |> List.sort compare |> List.map snd
  in
  let programs = List.map (fun name -> (name, A.generate (A.preset name))) order in
  let phases =
    A.phase_source ~phase_len:(n_sim / 2) [ A.preset "gzip"; A.preset "mcf" ]
  in
  { programs; phases; pool = A.create_pool ~jobs }

(* Every call carries a key naming it, the same in every pass and for
   every seed: the runner times units by key, and Digests checks the
   outputs stored under it. *)
let simulate probe layer machine ~n ~key run =
  Probe.call probe layer ~instrs:n
    ~cycles:(fun (s : A.Stats.t) -> s.A.Stats.cycles)
    ~events:"sim.events" ~key ~digest:Digests.of_value
    ~ok:(Probe.sim_ok ~n ~width:(A.width machine))
    run

let evaluate probe ~key params inputs =
  Probe.call probe "model.evaluate" ~key ~digest:Digests.of_value ~ok:Probe.cpi_ok (fun () ->
      A.evaluate params inputs)

(* Packings are not digested: they are large, and every simulation and
   characterisation over them is. *)
let pack probe ~key program =
  Probe.call probe "trace.pack" ~instrs:packed_len ~key
    ~ok:(fun p -> A.packed_length p = packed_len)
    (fun () -> A.pack program ~n:packed_len)

let abs_err ~sim model = Float.abs ((model -. sim) /. sim *. 100.0)

(* ---- fig2-sim: the five Figure 2 machines over packed traces ---- *)

let fig2_machines =
  [ ("ideal", A.ideal); ("bp", A.bp_only); ("ic", A.icache_only); ("dc", A.dcache_only);
    ("real", A.real) ]

(* Figure 2's independence estimate for one preset, as the exhibit
   computes it: (independent, compensated) |error| %. *)
let fig2_errors ~ideal ~bp ~ic ~dc ~(real : A.Stats.t) =
  let cycles (s : A.Stats.t) = float_of_int s.A.Stats.cycles in
  let bp_penalty = cycles bp -. cycles ideal in
  let ic_penalty = cycles ic -. cycles ideal in
  let dc_penalty = cycles dc -. cycles ideal in
  let independent = cycles ideal +. bp_penalty +. ic_penalty +. dc_penalty in
  let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  let br = frac real.A.Stats.mispredictions_under_long_miss real.A.Stats.branch_mispredictions in
  let im =
    frac real.A.Stats.imisses_under_long_miss (real.A.Stats.l1i_misses + real.A.Stats.l2i_misses)
  in
  let compensated = independent -. (br *. bp_penalty) -. (im *. ic_penalty) in
  let insns = float_of_int real.A.Stats.instructions in
  let real_ipc = A.Stats.ipc real in
  (abs_err ~sim:real_ipc (insns /. independent), abs_err ~sim:real_ipc (insns /. compensated))

let fig2_pass setup probe =
  let rows =
    List.filter_map
      (fun (name, program) ->
        Option.bind (pack probe ~key:name program) (fun packed ->
            let sims =
              List.filter_map
                (fun (cfg, machine) ->
                  simulate probe ("uarch.sim." ^ cfg) machine ~n:n_sim ~key:name (fun () ->
                      A.sim_packed machine packed ~n:n_sim))
                fig2_machines
            in
            match sims with
            | [ ideal; bp; ic; dc; real ] -> Some (fig2_errors ~ideal ~bp ~ic ~dc ~real)
            | _ -> None))
      setup.programs
  in
  { errors = List.map fst rows; fig2_comp = List.map snd rows }

(* ---- design-sweep: characterise once per machine point, evaluate a
   width x depth grid, on the pool ---- *)

let sweep_points =
  List.concat_map
    (fun cache -> List.map (fun (w, r) -> (cache, w, r)) [ (32, 64); (48, 128); (64, 128); (128, 256) ])
    [ None; Some A.fig14_caches ]

let sweep_grid =
  List.concat_map (fun w -> List.map (fun d -> (w, d)) [ 5; 7; 9; 11; 13; 15 ]) [ 2; 4; 6; 8 ]

type sweep_task =
  | Real of A.program
  | Point of A.program * (A.hierarchy option * int * int)

let design_pass setup probe =
  let packs = A.memo setup.pool in
  let base = A.Params.baseline in
  let run (name, task) =
    let packed program = A.Memo.get packs name (fun () -> pack probe ~key:name program) in
    match task with
    | Real program ->
        Option.bind (packed program) (fun p ->
            simulate probe "uarch.sim.real" A.real ~n:n_sim ~key:name (fun () ->
                A.sim_packed A.real p ~n:n_sim))
        |> Option.map (fun s -> `Sim (name, A.Stats.cpi s))
    | Point (program, (cache, window, rob)) ->
        let point =
          Printf.sprintf "%s/%s/w%dr%d" name
            (if cache = None then "base" else "fig14")
            window rob
        in
        packed program
        |> Fun.flip Option.bind (fun p ->
               let params = { base with A.Params.window_size = window; rob_size = rob } in
               Probe.call probe "analysis.characterize" ~instrs:n_profile ~key:point
                 ~digest:(fun (curve, _, inputs) -> Digests.of_value (curve, A.inputs_view inputs))
                 ~ok:Probe.characterization_ok (fun () ->
                   A.characterize_packed ~pool:setup.pool ~iw_instructions:n_iw
                     ?cache
                     ~params p ~n:n_profile)
               |> Option.map (fun (_, _, inputs) -> (params, inputs)))
        |> Fun.flip Option.bind (fun (params, inputs) ->
               let grid =
                 List.filter_map
                   (fun (width, depth) ->
                     evaluate probe
                       ~key:(Printf.sprintf "%s/%dx%d" point width depth)
                       { params with A.Params.width; pipeline_depth = depth }
                       inputs
                     |> Option.map (fun b -> ((width, depth), b)))
                   sweep_grid
               in
               (* The baseline machine point at the baseline width and
                  depth is Figure 15's model. *)
               if cache = None && window = base.A.Params.window_size && rob = base.A.Params.rob_size
               then
                 List.assoc_opt (base.A.Params.width, base.A.Params.pipeline_depth) grid
                 |> Option.map (fun b -> `Model (name, A.Cpi.total b))
               else None)
  in
  let tasks =
    List.concat_map
      (fun (name, program) ->
        (name, Real program)
        :: List.map
             (fun (cache, w, r) ->
               (name, Point (program, (cache, w, r))))
             sweep_points)
      setup.programs
  in
  let submitted_ns = A.now_ns () in
  let results = A.Pool.map setup.pool ~f:(Probe.task probe ~submitted_ns run) tasks in
  let sims = List.filter_map (function Some (`Sim s) -> Some s | _ -> None) results in
  let models = List.filter_map (function Some (`Model m) -> Some m | _ -> None) results in
  let errors =
    List.filter_map
      (fun (name, model) -> Option.map (fun sim -> abs_err ~sim model) (List.assoc_opt name sims))
      models
  in
  { errors; fig2_comp = [] }

(* ---- ext-stream: the Section 7 extensions, fed from the generator ---- *)

let ext_pass setup probe =
  let program name = List.assoc name setup.programs in
  let half = n_sim / 2 in
  let stream ext machine ~n ~key run =
    simulate probe ("uarch.sim_stream." ^ ext) machine ~n ~key run
  in
  let characterize ~key ~instrs f =
    Probe.call probe "analysis.characterize" ~instrs ~key
      ~digest:(fun i -> Digests.of_value (A.inputs_view i))
      ~ok:Probe.inputs_ok f
  in
  let characterize_program ?dtlb ~key ~params program =
    characterize ~key ~instrs:n_profile (fun () ->
        A.characterize_program ?dtlb ~iw_instructions:n_iw ~params program ~n:n_profile)
  in
  let tlb_params = { A.Params.baseline with A.Params.dtlb_walk = A.tlb_spec.walk_latency } in
  let tlb_machine = A.with_tlb A.real in
  let tlb_errors =
    List.filter_map
      (fun name ->
        let p = program name in
        let key = "tlb/" ^ name in
        let sim =
          stream "tlb" tlb_machine ~n:n_sim ~key (fun () -> A.sim_program tlb_machine p ~n:n_sim)
        in
        let model =
          Option.bind
            (characterize_program ~dtlb:A.tlb_spec ~key ~params:tlb_params p)
            (evaluate probe ~key tlb_params)
        in
        match (sim, model) with
        | Some s, Some b -> Some (abs_err ~sim:(A.Stats.cpi s) (A.Cpi.total b))
        | _ -> None)
      [ "gzip"; "mcf"; "twolf"; "vpr"; "gcc" ]
  in
  (* [configs] are (label, machine) pairs. *)
  let sweep ext names configs =
    List.iter
      (fun name ->
        List.iter
          (fun (label, m) ->
            ignore
              (stream ext m ~n:half ~key:(name ^ "/" ^ label) (fun () ->
                   A.sim_program m (program name) ~n:half)))
          configs)
      names
  in
  let labelled prefix machine_of =
    List.mapi (fun i c -> (prefix ^ string_of_int i, machine_of c))
  in
  sweep "fu" [ "gzip"; "vpr" ] (labelled "fu" (fun fu -> A.with_fu_limits fu A.ideal) A.fu_sets);
  (* As in the exhibit: each buffer size against its own ideal run. *)
  let buffers = [ 0; 16; 32; 64 ] in
  sweep "fetchbuf" [ "perlbmk"; "eon" ]
    (List.concat_map
       (fun b ->
         [ ("buf" ^ string_of_int b, A.icache_with_buffer b); ("ideal" ^ string_of_int b, A.ideal) ])
       buffers);
  sweep "cluster" [ "gzip"; "vortex"; "vpr" ]
    (labelled "c" (fun c -> A.with_clusters c A.ideal) [ 1; 2; 4 ]);
  let base = A.Params.baseline in
  let phase_errors =
    match
      stream "phases" A.real ~n:(2 * half) ~key:"gzip-mcf" (fun () ->
          A.sim_source A.real setup.phases ~n:(2 * half))
    with
    | None -> []
    | Some s ->
        let sim = A.Stats.cpi s in
        let key = "phases/gzip-mcf" in
        let monolithic =
          Option.bind
            (characterize ~key ~instrs:(2 * half) (fun () ->
                 A.characterize_source ~iw_instructions:n_iw ~params:base setup.phases
                   ~n:(2 * half)))
            (evaluate probe ~key base)
        in
        let phases =
          List.filter_map
            (fun name ->
              let key = "phases/" ^ name in
              Option.bind
                (characterize_program ~key ~params:base (program name))
                (evaluate probe ~key base))
            [ "gzip"; "mcf" ]
        in
        let phased =
          if List.length phases = 2 then
            Some (A.combine_phases (List.map (fun b -> (float_of_int half, b)) phases))
          else None
        in
        List.filter_map (Option.map (fun b -> abs_err ~sim (A.Cpi.total b))) [ monolithic; phased ]
  in
  { errors = tlb_errors @ phase_errors; fig2_comp = [] }

let all =
  [
    { name = "fig2-sim"; jobs = 1; pass = fig2_pass };
    {
      name = "design-sweep";
      jobs = Stdlib.min 2 (A.Pool.recommended_domain_count ());
      pass = design_pass;
    };
    { name = "ext-stream"; jobs = 1; pass = ext_pass };
  ]
