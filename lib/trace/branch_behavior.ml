type kind =
  | Biased of float
  | Loop of int
  | Pattern of bool array
  | Chaotic of float

type t = { kind : kind; rng : Fom_util.Rng.t; mutable step : int }

let create ~seed_rng kind =
  let ensure ~code ~path cond message = Fom_check.Checker.ensure ~code ~path cond message in
  (match kind with
  | Biased p | Chaotic p ->
      ensure ~code:"FOM-T030" ~path:"branch_behavior.taken_probability"
        (p >= 0.0 && p <= 1.0)
        "taken probability must be within [0, 1]"
  | Loop trip ->
      ensure ~code:"FOM-T031" ~path:"branch_behavior.trip" (trip >= 1)
        "loop trip count must be at least 1"
  | Pattern a ->
      ensure ~code:"FOM-T032" ~path:"branch_behavior.pattern" (Array.length a > 0)
        "direction pattern must be non-empty");
  { kind; rng = Fom_util.Rng.split seed_rng; step = 0 }

let next t =
  match t.kind with
  | Biased p | Chaotic p -> Fom_util.Rng.bernoulli t.rng p
  | Loop trip ->
      let taken = t.step < trip - 1 in
      t.step <- (t.step + 1) mod trip;
      taken
  | Pattern a ->
      let out = a.(t.step) in
      t.step <- (t.step + 1) mod Array.length a;
      out
