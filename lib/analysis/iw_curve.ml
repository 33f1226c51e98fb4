type point = { window : int; ipc : float }

type t = { points : point list; fit : Fom_util.Fit.power_law }

let default_windows = [ 4; 8; 16; 32; 64; 128; 256 ]

(* Observability (no-ops unless an Fom_obs sink is enabled). *)
let s_point = Fom_obs.Span.id "iw.point"
let h_window = Fom_obs.Metrics.histogram "iw.window_size"

let check_windows windows =
  Fom_check.Checker.ensure ~code:"FOM-I030" ~path:"iw_curve.windows" (windows <> [])
    "at least one window size is required"

let measure_packed ?pool ?(windows = default_windows) ?(n = 30_000) ?latencies ?issue_limit
    packed =
  check_windows windows;
  let windows = List.sort_uniq compare windows in
  let point window =
    Fom_obs.Metrics.observe h_window window;
    Fom_obs.Span.with_ s_point (fun () ->
        { window; ipc = Iw_sim.ipc_of_packed ?latencies ?issue_limit packed ~window ~n })
  in
  let points =
    match pool with
    | Some pool when Fom_exec.Pool.jobs pool > 1 ->
        (* One window per task. The packed trace is immutable flat
           arrays, so every domain reads the same columns in place —
           no copying, and the same kernel as the sequential path, so
           the points (hence the fit) are bit-identical either way. *)
        Fom_exec.Pool.map pool ~f:point windows
    | Some _ | None -> List.map point windows
  in
  let fit =
    Fom_util.Fit.power_law
      (Array.of_list (List.map (fun p -> (float_of_int p.window, p.ipc)) points))
  in
  { points; fit }

let measure ?pool ?windows ?(n = 30_000) ?latencies ?issue_limit program =
  let windows = match windows with Some w -> w | None -> default_windows in
  check_windows windows;
  (* The kernel fetches up to a window beyond the [n] it issues, so
     the packing carries the largest window of margin — replay is then
     exact for every sweep point, never wrapping. *)
  let max_window = List.fold_left Int.max 1 windows in
  let packed =
    Fom_trace.Packed.of_source (Fom_trace.Source.of_program program) ~n:(n + max_window)
  in
  measure_packed ?pool ~windows ~n ?latencies ?issue_limit packed

let alpha t = t.fit.Fom_util.Fit.alpha
let beta t = t.fit.Fom_util.Fit.beta
