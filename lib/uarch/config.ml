type t = {
  width : int;
  pipeline_depth : int;
  window_size : int;
  rob_size : int;
  latencies : Fom_isa.Latency.t;
  cache : Fom_cache.Hierarchy.config;
  predictor : Fom_branch.Predictor.spec;
  fu_limits : Fom_isa.Fu_set.t;
  dtlb : Fom_cache.Tlb.spec option;
  fetch_buffer : int;
  clusters : int;
}

let baseline =
  {
    width = 4;
    pipeline_depth = 5;
    window_size = 48;
    rob_size = 128;
    latencies = Fom_isa.Latency.default;
    cache = Fom_cache.Hierarchy.baseline;
    predictor = Fom_branch.Predictor.default_spec;
    fu_limits = Fom_isa.Fu_set.unbounded;
    dtlb = None;
    fetch_buffer = 0;
    clusters = 1;
  }

(* In-flight bookkeeping in both detailed kernels is ring-buffered by
   dynamic instruction index. Everything in flight — ROB residents plus the
   front-end pipe — must map to distinct slots, or completion lookups
   silently alias; the ring is therefore sized from the configuration
   (next power of two past the worst-case span), and configurations
   whose span would need an absurd ring are rejected outright. The
   same span bounds how far past its retirement target a run fetches:
   the last cycle can retire up to [width - 1] past the target, and
   that cycle's dispatch and fetch still refill the ROB and pipe
   behind it. *)
let max_comp_ring_bits = 24

let inflight_span t = t.rob_size + (t.width * t.pipeline_depth) + t.fetch_buffer + t.width

let comp_ring_bits t =
  let span = inflight_span t in
  let rec fit b = if 1 lsl b > span || b >= max_comp_ring_bits then b else fit (b + 1) in
  fit 8

let comp_ring_size t = 1 lsl comp_ring_bits t

let ideal_data_side t =
  t.cache.Fom_cache.Hierarchy.l1d = Fom_cache.Hierarchy.Ideal && Option.is_none t.dtlb

let budgets_need_ideal_data = "clusters and FU limits need an ideal L1D and no dTLB"

let check t =
  let module C = Fom_check.Checker in
  C.min_int ~code:"FOM-M001" ~path:"machine.width" ~min:1 t.width
  @ C.min_int ~code:"FOM-M002" ~path:"machine.pipeline_depth" ~min:1 t.pipeline_depth
  @ C.min_int ~code:"FOM-M003" ~path:"machine.window_size" ~min:1 t.window_size
  @ (if t.rob_size >= t.window_size then C.ok
     else
       C.fail ~code:"FOM-M004" ~path:"machine.window_size"
         (Printf.sprintf "window_size (%d) must not exceed rob_size (%d)" t.window_size
            t.rob_size))
  @ C.min_int ~code:"FOM-M005" ~path:"machine.fetch_buffer" ~min:0 t.fetch_buffer
  @ (if inflight_span t < 1 lsl max_comp_ring_bits then C.ok
     else
       C.fail ~code:"FOM-I032" ~path:"machine.rob_size"
         (Printf.sprintf
            "in-flight span of %d (rob_size + width * pipeline_depth + fetch_buffer + width) \
             exceeds the largest supported completion ring (2^%d entries); completion \
             lookups would silently alias"
            (inflight_span t) max_comp_ring_bits))
  @ C.min_int ~code:"FOM-M006" ~path:"machine.clusters" ~min:1 t.clusters
  @ (if t.clusters < 1 || t.width mod t.clusters = 0 then C.ok
     else
       C.fail ~code:"FOM-M007" ~path:"machine.clusters"
         (Printf.sprintf "clusters (%d) must divide width (%d)" t.clusters t.width))
  @ (if t.clusters < 1 || t.window_size mod t.clusters = 0 then C.ok
     else
       C.fail ~code:"FOM-M008" ~path:"machine.clusters"
         (Printf.sprintf "clusters (%d) must divide window_size (%d)" t.clusters
            t.window_size))
  @ (if t.clusters <= 1 || ideal_data_side t then C.ok
     else C.fail ~code:"FOM-M009" ~path:"machine.clusters" budgets_need_ideal_data)
  @ (if t.fu_limits = Fom_isa.Fu_set.unbounded || ideal_data_side t then C.ok
     else C.fail ~code:"FOM-M009" ~path:"machine.fu_limits" budgets_need_ideal_data)
  @ Fom_isa.Latency.diagnostics t.latencies
  @ Fom_isa.Fu_set.diagnostics t.fu_limits
  @ Fom_branch.Predictor.diagnostics t.predictor
  @ Fom_cache.Hierarchy.diagnostics t.cache
  @ match t.dtlb with Some spec -> Fom_cache.Tlb.diagnostics spec | None -> C.ok

let validate t = Fom_check.Checker.run_exn (check t)

let ideal t =
  { t with cache = Fom_cache.Hierarchy.all_ideal; predictor = Fom_branch.Predictor.Ideal }

let with_cache cache t = { t with cache }
let with_predictor predictor t = { t with predictor }
let with_depth pipeline_depth t = { t with pipeline_depth }
let with_fu_limits fu_limits t = { t with fu_limits }
let with_dtlb spec t = { t with dtlb = Some spec }
let with_fetch_buffer fetch_buffer t = { t with fetch_buffer }
let with_clusters clusters t = { t with clusters }
