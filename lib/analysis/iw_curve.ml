type point = { window : int; ipc : float }

type t = { points : point list; fit : Fom_util.Fit.power_law }

let default_windows = [ 4; 8; 16; 32; 64; 128; 256 ]

(* Observability (no-ops unless an Fom_obs sink is enabled). *)
let s_point = Fom_obs.Span.id "iw.point"

let measure_packed ?pool ?(windows = default_windows) ?(n = 30_000) packed =
  Fom_check.Checker.ensure ~code:"FOM-I030" ~path:"iw_curve.windows" (windows <> [])
    "at least one window size is required";
  let windows = List.sort_uniq compare windows in
  let point window =
    Fom_obs.Span.with_ s_point (fun () ->
        { window; ipc = Iw_sim.ipc_of_packed packed ~window ~n })
  in
  (* One window per task. The packed trace is immutable flat arrays,
     so every domain reads the same columns in place, and the pool
     delivers results in task order: the points, hence the fit, are
     bit-identical to a sequential measurement. *)
  let points =
    match pool with
    | Some pool -> Fom_exec.Pool.map pool ~f:point windows
    | None -> List.map point windows
  in
  let fit =
    Fom_util.Fit.power_law
      (Array.of_list (List.map (fun p -> (float_of_int p.window, p.ipc)) points))
  in
  { points; fit }

let measure ?(n = 30_000) program =
  (* The kernel fetches up to a window beyond the [n] it issues, so
     the packing carries the largest window of margin — replay is then
     exact for every sweep point, never wrapping. *)
  let max_window = List.fold_left Int.max 1 default_windows in
  let rows = Fom_trace.Packed.padded n ~margin:max_window in
  let packed = Fom_trace.Packed.at_least (Fom_trace.Source.of_program program) ~n:rows in
  measure_packed ~n packed

let alpha t = t.fit.Fom_util.Fit.alpha
let beta t = t.fit.Fom_util.Fit.beta
