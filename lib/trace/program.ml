module Rng = Fom_util.Rng
module Opclass = Fom_isa.Opclass

type static = {
  uid : int;
  pc : int;
  opclass : Opclass.t;
  nsrc : int;
  agen_spec : (Address_gen.kind * Address_gen.region) option;
  behavior_spec : Branch_behavior.kind option;
  chase : bool;
}

type block = {
  first : int;
  len : int;
  taken_succ : int;
  fall_succ : int;
}

type t = {
  config : Config.t;
  statics : static array;
  blocks : block array;
  distances : Rng.distances;
}

let code_base = 0x400000

(* Data regions are laid out from here; each allocation is rounded up
   to a 64 KiB boundary so regions never share cache sets spuriously. *)
let data_base = 0x10000000

type alloc = { mutable cursor : int; mutable staggers : int }

(* Region bases are staggered across cache sets: aligning every region
   identically would make concurrent streams walk the same sets in
   lockstep and thrash any set-associative cache, which real heaps do
   not do. *)
let allocate alloc size =
  let granule = 65536 in
  let stagger = alloc.staggers * 3 * 128 mod 8192 in
  alloc.staggers <- alloc.staggers + 1;
  let rounded = (size + stagger + granule - 1) / granule * granule in
  let base = alloc.cursor + stagger in
  alloc.cursor <- alloc.cursor + rounded;
  { Address_gen.base; size }

let sample_nsrc rng weights = Rng.categorical rng weights

let sample_trip rng mean =
  (* Trip counts of at least 2 with the configured mean. *)
  2 + Rng.geometric rng (1.0 /. (mean -. 1.0))

let sample_behavior rng (c : Config.control) =
  let u = Rng.float rng 1.0 in
  if u < c.chaotic_frac then
    Branch_behavior.Chaotic (c.chaotic_low +. Rng.float rng (c.chaotic_high -. c.chaotic_low))
  else if u < c.chaotic_frac +. c.pattern_frac then begin
    let period = 2 + Rng.int rng (c.pattern_max_period - 1) in
    Branch_behavior.Pattern (Array.init period (fun _ -> Rng.bool rng))
  end
  else Branch_behavior.Biased (if Rng.bool rng then c.bias else 1.0 -. c.bias)

let generate config =
  Config.validate config;
  let rng = Rng.create (config.Config.seed lxor 0x7A12) in
  let alloc = { cursor = data_base; staggers = 0 } in
  let mem = config.Config.memory in
  let local_region = allocate alloc mem.local_region in
  let random_region = allocate alloc mem.random_region in
  let chase_region = allocate alloc mem.chase_region in
  let statics = ref [] in
  let n_statics = ref 0 in
  let emit ~opclass ~nsrc ~agen_spec ~behavior_spec ~chase =
    let uid = !n_statics in
    incr n_statics;
    statics :=
      { uid; pc = code_base + (4 * uid); opclass; nsrc; agen_spec; behavior_spec; chase }
      :: !statics
  in
  let emit_load () =
    let u = Rng.float rng 1.0 in
    let kind, region, chase =
      if u < mem.local_frac then (Address_gen.Random, local_region, false)
      else if u < mem.local_frac +. mem.random_frac then (Address_gen.Random, random_region, false)
      else if u < mem.local_frac +. mem.random_frac +. mem.stream_frac then
        (Address_gen.Stride { stride = mem.stream_stride }, allocate alloc mem.stream_region, false)
      else (Address_gen.Chase, chase_region, true)
    in
    emit ~opclass:Opclass.Load ~nsrc:1 ~agen_spec:(Some (kind, region)) ~behavior_spec:None
      ~chase
  in
  let emit_store () =
    emit ~opclass:Opclass.Store ~nsrc:2
      ~agen_spec:(Some (Address_gen.Random, local_region)) ~behavior_spec:None ~chase:false
  in
  (* Body classes: the mix renormalized without control instructions.
     Classes are drawn by largest-remainder quota rather than
     independently at random, so that every block carries a
     representative slice of the mix — otherwise small hot programs
     would have a dynamic mix dominated by whichever blocks happen to
     be over-sampled. *)
  let body_classes = [| Opclass.Alu; Opclass.Mul; Opclass.Div; Opclass.Load; Opclass.Store |] in
  let body_weights = Array.map (fun c -> Config.class_weight config c) body_classes in
  let body_weight_total = Array.fold_left ( +. ) 0.0 body_weights in
  let body_emitted = Array.make (Array.length body_classes) 0.0 in
  let body_total = ref 0.0 in
  let next_body_class () =
    body_total := !body_total +. 1.0;
    let best = ref 0 and best_deficit = ref neg_infinity in
    Array.iteri
      (fun i w ->
        let deficit = (w /. body_weight_total *. !body_total) -. body_emitted.(i) in
        if deficit > !best_deficit then begin
          best := i;
          best_deficit := deficit
        end)
      body_weights;
    body_emitted.(!best) <- body_emitted.(!best) +. 1.0;
    body_classes.(!best)
  in
  let emit_body_instr () =
    match next_body_class () with
    | Opclass.Load -> emit_load ()
    | Opclass.Store -> emit_store ()
    | (Opclass.Alu | Opclass.Mul | Opclass.Div) as opclass ->
        emit ~opclass ~nsrc:(sample_nsrc rng config.Config.deps.nsrc_weights) ~agen_spec:None
          ~behavior_spec:None ~chase:false
    | Opclass.Branch | Opclass.Jump ->
        Fom_check.Checker.internal_error "control class drawn as a body instruction"
  in
  let ctrl = config.Config.control in
  let mean_body = Float.max 1.0 (Config.mean_block_len config -. 1.0) in
  let body_len () = 1 + Rng.geometric rng (1.0 /. mean_body) in
  let jump_frac =
    config.Config.mix.jump /. (config.Config.mix.branch +. config.Config.mix.jump)
  in
  (* Jump terminators are also placed by quota. *)
  let jumps_emitted = ref 0.0 and terminators_emitted = ref 0.0 in
  let next_is_jump () =
    terminators_emitted := !terminators_emitted +. 1.0;
    let deficit = (jump_frac *. !terminators_emitted) -. !jumps_emitted in
    if deficit >= 1.0 then begin
      jumps_emitted := !jumps_emitted +. 1.0;
      true
    end
    else false
  in
  let n_blocks = ctrl.regions * ctrl.blocks_per_region in
  let region_entry r = r * ctrl.blocks_per_region in
  let blocks = ref [] in
  for r = 0 to ctrl.regions - 1 do
    for b = 0 to ctrl.blocks_per_region - 1 do
      let id = region_entry r + b in
      let first = !n_statics in
      let body = body_len () in
      for _ = 1 to body do
        emit_body_instr ()
      done;
      let last_in_region = b = ctrl.blocks_per_region - 1 in
      let taken_succ, fall_succ =
        if last_in_region then
          (* Loop back-edge: taken repeats the region, fall-through
             moves on to the next region. *)
          (region_entry r, region_entry ((r + 1) mod ctrl.regions))
        else
          (* Internal branches drive the predictor with their direction
             stream but both edges continue to the next block: the
             simulation is trace-driven and correct-path only, so path
             variability would only make the dynamic mix noisy without
             exercising anything the model consumes. *)
          (id + 1, id + 1)
      in
      let is_jump = (not last_in_region) && ctrl.regions > 1 && next_is_jump () in
      if is_jump then begin
        (* A call: control transfers to another region's entry and the
           stream's return stack brings it back to [fall_succ] when the
           callee region completes. Never the caller's own region —
           direct recursion would trap the walk between the entry and
           the call site, starving the rest of the region. *)
        let target =
          let other = Rng.int rng (ctrl.regions - 1) in
          region_entry (if other >= r then other + 1 else other)
        in
        emit ~opclass:Opclass.Jump ~nsrc:0 ~agen_spec:None ~behavior_spec:None ~chase:false;
        blocks := { first; len = body + 1; taken_succ = target; fall_succ = id + 1 } :: !blocks
      end
      else begin
        let behavior =
          if last_in_region then Branch_behavior.Loop (sample_trip rng ctrl.loop_trip_mean)
          else sample_behavior rng ctrl
        in
        emit ~opclass:Opclass.Branch ~nsrc:1 ~agen_spec:None ~behavior_spec:(Some behavior)
          ~chase:false;
        blocks := { first; len = body + 1; taken_succ; fall_succ } :: !blocks
      end
    done
  done;
  let blocks = Array.of_list (List.rev !blocks) in
  assert (Array.length blocks = n_blocks);
  let deps = config.Config.deps in
  let distances =
    Rng.distances ~short_p:deps.short_p ~p:(1.0 /. deps.short_mean) ~long_max:deps.long_max
  in
  { config; statics = Array.of_list (List.rev !statics); blocks; distances }

let entry _t = 0
let static_count t = Array.length t.statics

