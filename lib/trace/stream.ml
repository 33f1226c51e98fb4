module Rng = Fom_util.Rng
module Opclass = Fom_isa.Opclass

(* Ring buffer of the dynamic indices of recent value-producing
   instructions. Dependence distances are sampled in this
   producers-back space. *)
type ring = {
  idx : int array;
  mutable head : int;
  mutable count : int;
}

let ring_create capacity = { idx = Array.make capacity (-1); head = 0; count = 0 }

let ring_push r index =
  r.idx.(r.head) <- index;
  r.head <- (r.head + 1) mod Array.length r.idx;
  if r.count < Array.length r.idx then r.count <- r.count + 1

(* Slot of the producer [d] places back, 1 = newest; [1 <= d <= count]. *)
let ring_pos r d =
  let cap = Array.length r.idx in
  (r.head - d + cap + cap) mod cap

type cursor = {
  mutable pc : int;
  mutable tag : int;
  mutable ndeps : int;
  deps : int array;
  mutable ea : int;
}

type t = {
  program : Program.t;
  rng : Rng.t;  (* dependence-distance sampling *)
  agens : Address_gen.t option array;  (* per static uid *)
  behaviors : Branch_behavior.t option array;
  last_instance : int array;  (* last dynamic index per chase chain *)
  chase_chains : int;  (* 0 = one chain per static chase load *)
  ring : ring;
  stack : int array;  (* return blocks for call-style jumps *)
  mutable stack_depth : int;
  mutable index : int;
  mutable block : int;
  mutable pos : int;  (* offset of the next instruction within block *)
  cur : cursor;
}

(* Calls nest one level: a called region executes with further calls
   elided. Anything deeper lets call cycles pin the stack and freeze
   the outer region progression, starving whole regions of the code
   footprint; one bounded excursion per call keeps block visits
   uniform while still exercising far control transfers. *)
let max_call_depth = 1

let create program =
  let config = program.Program.config in
  let seed_rng = Rng.create (config.Config.seed lxor 0x57AE) in
  let n = Program.static_count program in
  let agens = Array.make n None in
  let behaviors = Array.make n None in
  let max_nsrc = ref 1 in
  Array.iter
    (fun (s : Program.static) ->
      max_nsrc := Int.max !max_nsrc s.nsrc;
      (match s.agen_spec with
      | Some (kind, region) ->
          agens.(s.uid) <- Some (Address_gen.create ~seed_rng kind region)
      | None -> ());
      match s.behavior_spec with
      | Some kind -> behaviors.(s.uid) <- Some (Branch_behavior.create ~seed_rng kind)
      | None -> ())
    program.Program.statics;
  let deps = config.Config.deps in
  {
    program;
    rng = Rng.split seed_rng;
    agens;
    behaviors;
    last_instance = Array.make (Int.max n 1) (-1);
    chase_chains = config.Config.memory.Config.chase_chains;
    ring = ring_create (Int.max 64 deps.Config.long_max);
    stack = Array.make max_call_depth 0;
    stack_depth = 0;
    index = 0;
    block = Program.entry program;
    pos = 0;
    cur =
      {
        pc = 0;
        tag = 0;
        ndeps = 0;
        deps = Array.make !max_nsrc 0;
        ea = -1;
      };
  }

(* Sample [nsrc] producers into the cursor. The packed dependence
   column lists the most recently sampled dependence first, so sample
   [j] lands in slot [k - 1 - j]. An empty ring yields no
   dependences. *)
let sample_deps t c nsrc =
  let ring = t.ring in
  let distances = t.program.Program.distances in
  let k = if ring.count = 0 then 0 else nsrc in
  for j = 0 to k - 1 do
    let d = Rng.distance t.rng distances in
    c.deps.(k - 1 - j) <- ring.idx.(ring_pos ring (Int.min d ring.count))
  done;
  c.ndeps <- k

let step t =
  let program = t.program in
  let blk = program.Program.blocks.(t.block) in
  let s = program.Program.statics.(blk.first + t.pos) in
  let c = t.cur in
  let index = t.index in
  t.index <- index + 1;
  if t.pos = blk.len - 1 then t.pos <- 0 else t.pos <- t.pos + 1;
  c.pc <- s.pc;
  c.tag <- Opclass.to_int s.opclass;
  c.ea <-
    (match s.agen_spec with
    | None -> -1
    | Some _ -> (
        match t.agens.(s.uid) with
        | Some agen -> Address_gen.next agen
        | None ->
            Fom_check.Checker.internal_error
              "static with an address-generator spec has no generator"));
  let chain = if t.chase_chains > 0 then s.uid mod t.chase_chains else s.uid in
  if s.chase && t.last_instance.(chain) >= 0 then begin
    (* Pointer chase: serialized on the previous load of its chain. *)
    c.ndeps <- 1;
    c.deps.(0) <- t.last_instance.(chain)
  end
  else sample_deps t c s.nsrc;
  if s.chase then t.last_instance.(chain) <- index;
  (match s.opclass with
  | Opclass.Jump ->
      (* Call: remember where to resume once the callee region
         completes; at the depth cap the call is elided and the walk
         falls through. *)
      let succ =
        if t.stack_depth < max_call_depth then begin
          t.stack.(t.stack_depth) <- blk.fall_succ;
          t.stack_depth <- t.stack_depth + 1;
          blk.taken_succ
        end
        else blk.fall_succ
      in
      let target_blk = program.Program.blocks.(succ) in
      t.block <- succ;
      c.ea <- (program.Program.statics.(target_blk.first).pc lsl 1) lor 1
  | Opclass.Branch ->
      let taken =
        match t.behaviors.(s.uid) with
        | Some b -> Branch_behavior.next b
        | None ->
            Fom_check.Checker.internal_error
              "branch static has no behavior generator"
      in
      let is_loop_exit = (not taken) && blk.taken_succ <= t.block in
      let succ =
        if taken then blk.taken_succ
        else if is_loop_exit && t.stack_depth > 0 then begin
          (* Region completed: return to the pending caller. *)
          t.stack_depth <- t.stack_depth - 1;
          t.stack.(t.stack_depth)
        end
        else blk.fall_succ
      in
      let target_blk = program.Program.blocks.(blk.taken_succ) in
      t.block <- succ;
      c.ea <- (program.Program.statics.(target_blk.first).pc lsl 1) lor Bool.to_int taken
  | Opclass.Alu | Opclass.Mul | Opclass.Div | Opclass.Load | Opclass.Store -> ());
  if Opclass.has_result s.opclass then ring_push t.ring index;
  c
