type outcome = L1_hit | L2_hit | Memory

type level = Ideal | Real of Geometry.t
type l2_level = Ideal_l2 | Real_l2 of Geometry.t | No_l2

type latencies = { l1 : int; l2 : int; memory : int }

type config = { l1i : level; l1d : level; l2 : l2_level; latencies : latencies }

let baseline_latencies = { l1 = 1; l2 = 8; memory = 200 }

let baseline =
  {
    l1i = Real Geometry.l1_baseline;
    l1d = Real Geometry.l1_baseline;
    l2 = Real_l2 Geometry.l2_baseline;
    latencies = baseline_latencies;
  }

let all_ideal = { baseline with l1i = Ideal; l1d = Ideal }
let ideal_except_l1i = { baseline with l1d = Ideal; l2 = Ideal_l2 }
let ideal_except_data = { baseline with l1i = Ideal }

let inst_line_mask config =
  match config.l1i with Real g -> lnot (g.Geometry.line - 1) | Ideal -> lnot 127

let fig14 =
  {
    l1i = Ideal;
    l1d = Real (Geometry.make ~size:(128 * 1024) ~assoc:4 ~line:128);
    l2 = No_l2;
    latencies = baseline_latencies;
  }

type t = {
  config : config;
  l1i : Sa_cache.t option;
  l1d : Sa_cache.t option;
  l2 : Sa_cache.t option;
}

let diagnostics (config : config) =
  let module C = Fom_check.Checker in
  let l = config.latencies in
  (match config.l1i with Ideal -> C.ok | Real g -> Geometry.diagnostics ~path:"cache.l1i" g)
  @ (match config.l1d with Ideal -> C.ok | Real g -> Geometry.diagnostics ~path:"cache.l1d" g)
  @ (match config.l2 with
    | Ideal_l2 | No_l2 -> C.ok
    | Real_l2 g -> Geometry.diagnostics ~path:"cache.l2" g)
  @ C.min_int ~code:"FOM-M015" ~path:"cache.latencies.l1" ~min:0 l.l1
  @ (if l.l2 >= l.l1 then C.ok
     else
       C.fail ~code:"FOM-M015" ~path:"cache.latencies.l2"
         (Printf.sprintf "L2 latency (%d) must not be below L1 latency (%d)" l.l2 l.l1))
  @
  if l.memory >= l.l2 then C.ok
  else
    C.fail ~code:"FOM-M015" ~path:"cache.latencies.memory"
      (Printf.sprintf "memory latency (%d) must not be below L2 latency (%d)" l.memory l.l2)

let create (config : config) =
  Fom_check.Checker.run_exn (diagnostics config);
  let level = function Ideal -> None | Real g -> Some (Sa_cache.create g) in
  let l2 =
    match config.l2 with
    | Ideal_l2 | No_l2 -> None
    | Real_l2 g -> Some (Sa_cache.create g)
  in
  { config; l1i = level config.l1i; l1d = level config.l1d; l2 }

let beyond_l1 t addr =
  match (t.config.l2, t.l2) with
  | Ideal_l2, _ -> L2_hit
  | No_l2, _ -> Memory
  | Real_l2 _, Some l2 -> if Sa_cache.access l2 addr then L2_hit else Memory
  | Real_l2 _, None -> Fom_check.Checker.internal_error "real L2 configured without a cache"

let access_inst t addr =
  match t.l1i with
  | Some l1 when not (Sa_cache.access l1 addr) -> beyond_l1 t addr
  | Some _ | None -> L1_hit

let access_data t addr =
  match t.l1d with
  | Some l1 when not (Sa_cache.access l1 addr) -> beyond_l1 t addr
  | Some _ | None -> L1_hit

let data_latency t = function
  | L1_hit -> t.config.latencies.l1
  | L2_hit -> t.config.latencies.l2
  | Memory -> t.config.latencies.memory

let inst_stall t = function
  | L1_hit -> 0
  | L2_hit -> t.config.latencies.l2
  | Memory -> t.config.latencies.memory
