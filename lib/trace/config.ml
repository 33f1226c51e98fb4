type mix = {
  load : float;
  store : float;
  branch : float;
  jump : float;
  mul : float;
  div : float;
}

type deps = {
  short_p : float;
  short_mean : float;
  long_max : int;
  nsrc_weights : float array;
}

type control = {
  regions : int;
  blocks_per_region : int;
  chaotic_frac : float;
  chaotic_low : float;
  chaotic_high : float;
  pattern_frac : float;
  pattern_max_period : int;
  loop_trip_mean : float;
  bias : float;
}

type memory = {
  local_frac : float;
  random_frac : float;
  stream_frac : float;
  chase_frac : float;
  local_region : int;
  random_region : int;
  stream_region : int;
  chase_region : int;
  stream_stride : int;
  chase_chains : int;
}

type t = {
  name : string;
  seed : int;
  mix : mix;
  deps : deps;
  control : control;
  memory : memory;
}

(* Paths are relative to [workload.<name>], joined only on failure. *)
let check t =
  let module C = Fom_check.Checker in
  let frac path v = C.fraction ~code:"FOM-T001" ~path v in
  let at_least path bound v = C.min_int ~code:"FOM-T004" ~path ~min:bound v in
  let m = t.mix in
  let d = t.deps in
  let c = t.control in
  let mm = t.memory in
  C.within "workload."
    (C.within t.name
       (frac ".mix.load" m.load
       @ frac ".mix.store" m.store
       @ frac ".mix.branch" m.branch
       @ frac ".mix.jump" m.jump
       @ frac ".mix.mul" m.mul
       @ frac ".mix.div" m.div
       @ C.check ~code:"FOM-T002" ~path:".mix"
           (m.load +. m.store +. m.branch +. m.jump +. m.mul +. m.div <= 1.0 +. 1e-9)
           "instruction-class fractions must sum to at most 1 (the remainder is ALU work)"
       @ C.check ~code:"FOM-T003" ~path:".mix"
           (m.branch +. m.jump > 0.0)
           "branch + jump must be positive: it sets the mean basic-block length"
       @ frac ".deps.short_p" d.short_p
       @ C.min_float ~code:"FOM-T004" ~path:".deps.short_mean" ~min:1.0 d.short_mean
       @ at_least ".deps.long_max" 1 d.long_max
       @ (if Array.length d.nsrc_weights = 3 then C.ok
          else
            C.fail ~code:"FOM-T005" ~path:".deps.nsrc_weights"
              (Printf.sprintf "needs exactly 3 weights (0, 1, 2 sources), got %d"
                 (Array.length d.nsrc_weights)))
       @ C.check ~code:"FOM-T005" ~path:".deps.nsrc_weights"
           (Array.for_all (fun w -> w >= 0.0) d.nsrc_weights)
           "weights must be non-negative"
       @ C.check ~code:"FOM-T005" ~path:".deps.nsrc_weights"
           (Array.fold_left ( +. ) 0.0 d.nsrc_weights > 0.0)
           "weights must have a positive sum"
       @ at_least ".control.regions" 1 c.regions
       @ at_least ".control.blocks_per_region" 2 c.blocks_per_region
       @ frac ".control.chaotic_frac" c.chaotic_frac
       @ frac ".control.pattern_frac" c.pattern_frac
       @ C.check ~code:"FOM-T008" ~path:".control"
           (c.chaotic_frac +. c.pattern_frac <= 1.0 +. 1e-9)
           "chaotic_frac + pattern_frac must not exceed 1 (the rest are biased branches)"
       @ frac ".control.chaotic_low" c.chaotic_low
       @ frac ".control.chaotic_high" c.chaotic_high
       @ (if c.chaotic_low <= c.chaotic_high then C.ok
          else
            C.fail ~code:"FOM-T007" ~path:".control.chaotic_low"
              (Printf.sprintf "chaotic_low (%g) must not exceed chaotic_high (%g)"
                 c.chaotic_low c.chaotic_high))
       @ at_least ".control.pattern_max_period" 2 c.pattern_max_period
       @ C.min_float ~code:"FOM-T004" ~path:".control.loop_trip_mean" ~min:2.0
           c.loop_trip_mean
       @ frac ".control.bias" c.bias
       @ frac ".memory.local_frac" mm.local_frac
       @ frac ".memory.random_frac" mm.random_frac
       @ frac ".memory.stream_frac" mm.stream_frac
       @ frac ".memory.chase_frac" mm.chase_frac
       @ C.sum_to_one ~code:"FOM-T010" ~path:".memory"
           [
             ("local_frac", mm.local_frac);
             ("random_frac", mm.random_frac);
             ("stream_frac", mm.stream_frac);
             ("chase_frac", mm.chase_frac);
           ]
       @ at_least ".memory.local_region" 1 mm.local_region
       @ at_least ".memory.random_region" 1 mm.random_region
       @ at_least ".memory.stream_region" 1 mm.stream_region
       @ at_least ".memory.chase_region" 1 mm.chase_region
       @ (if mm.stream_stride > 0 && mm.stream_stride mod 8 = 0 then C.ok
          else
            C.fail ~code:"FOM-T006" ~path:".memory.stream_stride"
              (Printf.sprintf "stride must be a positive multiple of 8 bytes, got %d"
                 mm.stream_stride))
       @ at_least ".memory.chase_chains" 0 mm.chase_chains))

let validate t = Fom_check.Checker.run_exn (check t)

let alu_frac t =
  let m = t.mix in
  1.0 -. (m.load +. m.store +. m.branch +. m.jump +. m.mul +. m.div)

let mean_block_len t = 1.0 /. (t.mix.branch +. t.mix.jump)

let class_weight t cls =
  let m = t.mix in
  match cls with
  | Fom_isa.Opclass.Alu -> alu_frac t
  | Fom_isa.Opclass.Mul -> m.mul
  | Fom_isa.Opclass.Div -> m.div
  | Fom_isa.Opclass.Load -> m.load
  | Fom_isa.Opclass.Store -> m.store
  | Fom_isa.Opclass.Branch -> m.branch
  | Fom_isa.Opclass.Jump -> m.jump
