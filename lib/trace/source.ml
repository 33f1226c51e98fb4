module Instr = Fom_isa.Instr

type kind =
  | Generator of { program : Program.t; seed : int option }
  | Schedule of (Program.t * int) list
  | Recorded of Instr.t array

type t = { label : string; kind : kind }

let label t = t.label

let of_program ?seed program =
  { label = program.Program.config.Config.name; kind = Generator { program; seed } }

let of_schedule ~label phases =
  Fom_check.Checker.ensure ~code:"FOM-T041" ~path:"source.of_schedule"
    (phases <> [] && List.for_all (fun (_, budget) -> budget >= 1) phases)
    "phase schedule must be non-empty, with positive instruction budgets";
  { label; kind = Schedule phases }

let of_instrs ?(label = "recorded") instrs =
  let ensure cond message =
    Fom_check.Checker.ensure ~code:"FOM-T110" ~path:"source.of_instrs" cond message
  in
  ensure (Array.length instrs > 0) "recorded trace must be non-empty";
  Array.iteri
    (fun i (ins : Instr.t) ->
      ensure (ins.Instr.index = i) "recorded trace must be in dynamic index order";
      ensure
        (Fom_isa.Opclass.is_memory ins.Instr.opclass = Option.is_some ins.Instr.mem
        && Fom_isa.Opclass.is_control ins.Instr.opclass = Option.is_some ins.Instr.ctrl)
        "memory operations alone carry an address, control operations alone a direction";
      ensure
        (match ins.Instr.mem with Some addr -> addr >= 0 | None -> true)
        "memory addresses must be non-negative";
      ensure
        (match ins.Instr.ctrl with Some c -> c.Instr.target >= 0 | None -> true)
        "control targets must be non-negative")
    instrs;
  { label; kind = Recorded instrs }
