module Instr = Fom_isa.Instr
module Opclass = Fom_isa.Opclass
module Reg = Fom_isa.Reg

type t = {
  label : string;
  len : int;
  op : int array;
  pc : int array;
  ea : int array;
  dep_off : int array;
  dep_val : int array;
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

(* The class tag (< 8) in bits 0-2, the destination register plus one
   (0 for none, at most 32) in bits 3-8, the source word above. *)
let op_word ~tag ~dst srcs = tag lor ((dst + 1) lsl 3) lor (srcs lsl 9)

(* Row [i]'s producers: the first [nd] of [src], re-based by [rebase].
   The dependence array doubles when full. *)
let[@inline] write_deps c deps i src nd ~rebase =
  let used = c.dep_off.(i) in
  if used + nd > Array.length !deps then begin
    let grown = Array.make (2 * (used + nd)) 0 in
    Array.blit !deps 0 grown 0 used;
    deps := grown
  end;
  let dep_val = !deps in
  for k = 0 to nd - 1 do
    dep_val.(used + k) <- src.(k) + rebase
  done;
  c.dep_off.(i + 1) <- used + nd

(* Generator rows: step [stream] [count] times into rows [first ..],
   re-basing its dependences by [rebase]. The generator builds
   well-formed instructions and its cursor already holds the column
   encodings, so nothing here needs validating and nothing allocates. *)
let write_stream c deps stream ~first ~count ~rebase =
  for i = first to first + count - 1 do
    let cur = Stream.step stream in
    let nd = cur.Stream.ndeps in
    c.op.(i) <-
      op_word ~tag:cur.Stream.tag ~dst:cur.Stream.dst
        (srcs_word nd
           (if nd > 0 then cur.Stream.srcs.(0) else 0)
           (if nd > 1 then cur.Stream.srcs.(1) else 0));
    c.pc.(i) <- cur.Stream.pc;
    c.ea.(i) <- cur.Stream.ea;
    write_deps c deps i cur.Stream.deps nd ~rebase
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
    c.op.(i) <-
      op_word ~tag:(Opclass.to_int ins.Instr.opclass)
        ~dst:(match ins.Instr.dst with Some d -> Reg.to_int d | None -> -1)
        (match ins.Instr.srcs with
        | [] -> srcs_word 0 0 0
        | [ a ] -> srcs_word 1 (Reg.to_int a) 0
        | [ a; b ] -> srcs_word 2 (Reg.to_int a) (Reg.to_int b)
        | srcs -> srcs_word (List.length srcs) 0 0);
    c.pc.(i) <- ins.Instr.pc;
    c.ea.(i) <-
      (match (ins.Instr.mem, ins.Instr.ctrl) with
      | Some addr, _ -> addr
      | None, Some ctrl -> (ctrl.Instr.target lsl 1) lor Bool.to_int ctrl.Instr.taken
      | None, None -> -1);
    write_deps c deps i ins.Instr.deps (Array.length ins.Instr.deps) ~rebase
  done

let of_source ?label source ~n =
  Fom_check.Checker.ensure ~code:"FOM-T130" ~path:"packed.n" (n > 0)
    "packed trace length must be positive";
  let c =
    {
      label = (match label with Some l -> l | None -> Source.label source);
      len = n;
      op = Array.make n 0;
      pc = Array.make n 0;
      ea = Array.make n 0;
      dep_off = Array.make (n + 1) 0;
      dep_val = [||];
    }
  in
  (* The presets average 0.08 to 1.29 dependences per instruction. *)
  let deps = ref (Array.make (n + (n / 2)) 0) in
  (match source.Source.kind with
  | Source.Generator { program; seed } ->
      write_stream c deps (Stream.create ?seed program) ~first:0 ~count:n ~rebase:0
  | Source.Schedule phases -> write_schedule c deps phases
  | Source.Recorded instrs -> write_recorded c deps instrs);
  { c with dep_val = !deps }

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
  let word = t.op.(off) and ea = t.ea.(off) in
  let opclass = Opclass.of_int (word land 7) in
  let dst = ((word lsr 3) land 63) - 1 in
  {
    Instr.index = i;
    pc = t.pc.(off);
    opclass;
    dst = (if dst < 0 then None else Some (Reg.of_int dst));
    srcs = unpack_srcs (word lsr 9);
    deps = Array.init (hi - lo) (fun k -> t.dep_val.(lo + k) + rebase);
    mem = (if Opclass.is_memory opclass then Some ea else None);
    ctrl =
      (if Opclass.is_control opclass then
         Some { Instr.target = ea lsr 1; taken = ea land 1 = 1 }
       else None);
  }
