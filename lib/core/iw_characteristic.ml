type t = {
  alpha : float;
  beta : float;
  avg_latency : float;
  issue_width : float;
}

let make ~alpha ~beta ?(avg_latency = 1.0) ?(issue_width = infinity) () =
  let module C = Fom_check.Checker in
  C.run_exn
    (C.all
       [
         C.positive_float ~code:"FOM-I002" ~path:"iw.alpha" alpha;
         C.positive_fraction ~code:"FOM-I003" ~path:"iw.beta" beta;
         C.min_float ~code:"FOM-I004" ~path:"iw.avg_latency" ~min:1.0 avg_latency;
         C.check ~code:"FOM-I002" ~path:"iw.issue_width" (issue_width > 0.0)
           "issue width must be positive";
       ]);
  { alpha; beta; avg_latency; issue_width }

let square_law = make ~alpha:1.0 ~beta:0.5 ()

let unclipped_rate t w =
  if w <= 0.0 then 0.0 else t.alpha *. Float.pow w t.beta /. t.avg_latency

let issue_rate t w =
  if w <= 0.0 then 0.0 else Float.min w (Float.min t.issue_width (unclipped_rate t w))

let occupancy_for_rate t rate =
  Fom_check.Checker.ensure ~code:"FOM-I030" ~path:"iw.occupancy_for_rate" (rate > 0.0)
    "rate must be positive";
  Float.pow (rate *. t.avg_latency /. t.alpha) (1.0 /. t.beta)

let steady_state_ipc t ~window = issue_rate t (float_of_int window)

let steady_state_occupancy t ~window =
  let window = float_of_int window in
  if unclipped_rate t window <= t.issue_width then window
  else Float.min window (occupancy_for_rate t t.issue_width)
