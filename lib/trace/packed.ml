module Instr = Fom_isa.Instr
module Opclass = Fom_isa.Opclass
module Reg = Fom_isa.Reg

type t = {
  label : string;
  len : int;
  tag : int array;
  pc : int array;
  dst : int array;
  srcs : int array;
  dep_off : int array;
  dep_val : int array;
  mem : int array;
  ctrl : int array;
}

let label t = t.label
let length t = t.len

(* Source registers pack into one word: bits 0-1 the count, then one
   {!Reg.to_int} (< 32, so 8 bits are plenty) per slot. *)
let srcs_word count a b =
  match count with
  | 0 -> 0
  | 1 -> 1 lor (a lsl 2)
  | 2 -> 2 lor (a lsl 2) lor (b lsl 10)
  | _ ->
      (* Instr.make enforces at most two sources. *)
      Fom_check.Checker.internal_error "instruction with more than two source registers"

let pack_srcs srcs =
  match srcs with
  | [] -> srcs_word 0 0 0
  | [ a ] -> srcs_word 1 (Reg.to_int a) 0
  | [ a; b ] -> srcs_word 2 (Reg.to_int a) (Reg.to_int b)
  | _ -> srcs_word (List.length srcs) 0 0

let unpack_srcs word =
  match word land 3 with
  | 0 -> []
  | 1 -> [ Reg.of_int ((word lsr 2) land 0xff) ]
  | 2 -> [ Reg.of_int ((word lsr 2) land 0xff); Reg.of_int ((word lsr 10) land 0xff) ]
  | _ -> Fom_check.Checker.internal_error "corrupt packed source-register word"

let ensure ~path cond message = Fom_check.Checker.ensure ~code:"FOM-T130" ~path cond message

(* The column writer: copies the generator's cursor straight into the
   columns. The generator builds well-formed instructions, so nothing
   here needs validating and nothing allocates. *)
let write_stream c deps stream =
  for i = 0 to c.len - 1 do
    let cur = Stream.step stream in
    c.tag.(i) <- cur.Stream.tag;
    c.pc.(i) <- cur.Stream.pc;
    c.dst.(i) <- cur.Stream.dst;
    let nd = cur.Stream.ndeps in
    c.srcs.(i) <-
      srcs_word nd
        (if nd > 0 then cur.Stream.srcs.(0) else 0)
        (if nd > 1 then cur.Stream.srcs.(1) else 0);
    for k = 0 to nd - 1 do
      Fom_util.Int_buffer.push deps cur.Stream.deps.(k)
    done;
    c.dep_off.(i + 1) <- Fom_util.Int_buffer.length deps;
    c.mem.(i) <- cur.Stream.mem;
    c.ctrl.(i) <- cur.Stream.ctrl
  done

(* The generic path, for every other source: one [Instr.t] per
   instruction, validated as it is taken apart. *)
let write_instrs c deps source =
  let next = Source.fresh source in
  for i = 0 to c.len - 1 do
    let ins = next () in
    ensure ~path:"packed.of_source" (ins.Instr.index = i)
      "source must replay instructions in dynamic index order";
    c.tag.(i) <- Opclass.to_int ins.Instr.opclass;
    c.pc.(i) <- ins.Instr.pc;
    (match ins.Instr.dst with Some d -> c.dst.(i) <- Reg.to_int d | None -> ());
    c.srcs.(i) <- pack_srcs ins.Instr.srcs;
    Array.iter (fun d -> Fom_util.Int_buffer.push deps d) ins.Instr.deps;
    c.dep_off.(i + 1) <- Fom_util.Int_buffer.length deps;
    (match ins.Instr.mem with
    | Some addr ->
        ensure ~path:"packed.of_source" (addr >= 0) "memory addresses must be non-negative";
        c.mem.(i) <- addr
    | None -> ());
    match ins.Instr.ctrl with
    | Some ctrl ->
        ensure ~path:"packed.of_source" (ctrl.Instr.target >= 0)
          "control targets must be non-negative";
        c.ctrl.(i) <- (ctrl.Instr.target lsl 1) lor Bool.to_int ctrl.Instr.taken
    | None -> ()
  done

let of_source ?label source ~n =
  ensure ~path:"packed.n" (n > 0) "packed trace length must be positive";
  let c =
    {
      label = (match label with Some l -> l | None -> Source.label source);
      len = n;
      tag = Array.make n 0;
      pc = Array.make n 0;
      dst = Array.make n (-1);
      srcs = Array.make n 0;
      dep_off = Array.make (n + 1) 0;
      dep_val = [||];
      mem = Array.make n (-1);
      ctrl = Array.make n (-1);
    }
  in
  let deps = Fom_util.Int_buffer.create ~capacity:(2 * n) () in
  (match Source.stream source with
  | Some stream -> write_stream c deps stream
  | None -> write_instrs c deps source);
  { c with dep_val = Fom_util.Int_buffer.contents deps }

(* Decode one instruction. Fields are well-formed (by construction
   from the generator, validated as packed from any other source), so
   the record is built directly rather than through [Instr.make] —
   this runs once per replayed instruction on the simulators' fetch
   paths. Past the end
   the trace wraps with re-based indices and dependences, mirroring
   {!Source.of_instrs}. *)
let instr t i =
  Fom_check.Checker.ensure ~code:"FOM-T131" ~path:"packed.instr" (i >= 0)
    "dynamic index must be non-negative";
  let off = i mod t.len in
  let rebase = i - off in
  let lo = t.dep_off.(off) and hi = t.dep_off.(off + 1) in
  {
    Instr.index = i;
    pc = t.pc.(off);
    opclass = Opclass.of_int t.tag.(off);
    dst = (if t.dst.(off) < 0 then None else Some (Reg.of_int t.dst.(off)));
    srcs = unpack_srcs t.srcs.(off);
    deps = Array.init (hi - lo) (fun k -> t.dep_val.(lo + k) + rebase);
    mem = (if t.mem.(off) < 0 then None else Some t.mem.(off));
    ctrl =
      (if t.ctrl.(off) < 0 then None
       else Some { Instr.target = t.ctrl.(off) lsr 1; taken = t.ctrl.(off) land 1 = 1 });
  }
