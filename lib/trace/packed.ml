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

let unpack_srcs word =
  match word land 3 with
  | 0 -> []
  | 1 -> [ Reg.of_int ((word lsr 2) land 0xff) ]
  | 2 -> [ Reg.of_int ((word lsr 2) land 0xff); Reg.of_int ((word lsr 10) land 0xff) ]
  | _ -> Fom_check.Checker.internal_error "corrupt packed source-register word"

(* Generator rows: step [stream] [count] times into rows [first ..],
   re-basing its dependences by [rebase]. The generator builds
   well-formed instructions and its cursor already holds the column
   encodings, so nothing here needs validating and nothing allocates. *)
let write_stream c deps stream ~first ~count ~rebase =
  for i = first to first + count - 1 do
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
      Fom_util.Int_buffer.push deps (cur.Stream.deps.(k) + rebase)
    done;
    c.dep_off.(i + 1) <- Fom_util.Int_buffer.length deps;
    c.mem.(i) <- cur.Stream.mem;
    c.ctrl.(i) <- cur.Stream.ctrl
  done

(* A phase schedule: each activation is a fresh stream of its phase's
   program, numbered from the row it starts at; after the last phase
   the schedule starts over. Budgets are positive, so this ends. *)
let write_schedule c deps phases =
  let row = ref 0 in
  while !row < c.len do
    List.iter
      (fun (program, budget) ->
        let count = Int.min budget (c.len - !row) in
        if count > 0 then begin
          write_stream c deps (Stream.create program) ~first:!row ~count ~rebase:!row;
          row := !row + count
        end)
      phases
  done

(* A recorded trace, already validated by {!Source.of_instrs}: row [i]
   is instruction [i mod len], re-based by the completed copies. *)
let write_recorded c deps instrs =
  let len = Array.length instrs in
  for i = 0 to c.len - 1 do
    let ins = instrs.(i mod len) in
    let rebase = i - (i mod len) in
    c.tag.(i) <- Opclass.to_int ins.Instr.opclass;
    c.pc.(i) <- ins.Instr.pc;
    (match ins.Instr.dst with Some d -> c.dst.(i) <- Reg.to_int d | None -> ());
    c.srcs.(i) <-
      (match ins.Instr.srcs with
      | [] -> srcs_word 0 0 0
      | [ a ] -> srcs_word 1 (Reg.to_int a) 0
      | [ a; b ] -> srcs_word 2 (Reg.to_int a) (Reg.to_int b)
      | srcs -> srcs_word (List.length srcs) 0 0);
    Array.iter (fun d -> Fom_util.Int_buffer.push deps (d + rebase)) ins.Instr.deps;
    c.dep_off.(i + 1) <- Fom_util.Int_buffer.length deps;
    (match ins.Instr.mem with Some addr -> c.mem.(i) <- addr | None -> ());
    match ins.Instr.ctrl with
    | Some ctrl -> c.ctrl.(i) <- (ctrl.Instr.target lsl 1) lor Bool.to_int ctrl.Instr.taken
    | None -> ()
  done

let of_source ?label source ~n =
  Fom_check.Checker.ensure ~code:"FOM-T130" ~path:"packed.n" (n > 0)
    "packed trace length must be positive";
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
  (match source.Source.kind with
  | Source.Generator { program; seed } ->
      write_stream c deps (Stream.create ?seed program) ~first:0 ~count:n ~rebase:0
  | Source.Schedule phases -> write_schedule c deps phases
  | Source.Recorded instrs -> write_recorded c deps instrs);
  { c with dep_val = Fom_util.Int_buffer.contents deps }

(* Decode one instruction. Fields are well-formed (by construction
   from the generator, validated by {!Source.of_instrs} for a recorded
   trace), so the record is built directly rather than through
   [Instr.make]. Past the end the trace wraps with re-based indices
   and dependences, like a recorded source. *)
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
