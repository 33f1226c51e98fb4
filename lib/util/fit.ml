type line = { slope : float; intercept : float; r2 : float }

let ensure ~path cond message = Fom_check.Checker.ensure ~code:"FOM-U001" ~path cond message

let line points =
  let n = Array.length points in
  ensure ~path:"fit.line" (n >= 2) "a line fit needs at least two points";
  let xs = Array.map fst points and ys = Array.map snd points in
  let mx = Stats.mean xs and my = Stats.mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      sxy := !sxy +. ((x -. mx) *. (y -. my));
      sxx := !sxx +. ((x -. mx) *. (x -. mx));
      syy := !syy +. ((y -. my) *. (y -. my)))
    points;
  ensure ~path:"fit.line" (!sxx > 0.0) "x values must not all coincide";
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  (* Flatness is decided on the ys themselves: the rounded mean of
     equal ys can differ from them, leaving [syy > 0] with [sxy = 0]. *)
  let flat = Array.for_all (fun y -> y = ys.(0)) ys in
  let r2 = if flat then 1.0 else !sxy *. !sxy /. (!sxx *. !syy) in
  { slope; intercept; r2 }

type power_law = { alpha : float; beta : float; r2 : float }

let log2 x = Float.log x /. Float.log 2.0

let power_law points =
  Array.iter
    (fun (x, y) ->
      ensure ~path:"fit.power_law" (x > 0.0 && y > 0.0)
        "points must be strictly positive to fit in log space")
    points;
  let logged = Array.map (fun (x, y) -> (log2 x, log2 y)) points in
  let l = line logged in
  { alpha = Float.pow 2.0 l.intercept; beta = l.slope; r2 = l.r2 }

let eval_power_law p x = p.alpha *. Float.pow x p.beta
