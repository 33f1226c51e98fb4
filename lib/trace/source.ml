module Opclass = Fom_isa.Opclass

type columns = {
  op : int array;
  pc : int array;
  ea : int array;
  dep_off : int array;
  dep_val : int array;
}

type kind =
  | Generator of Program.t
  | Schedule of (Program.t * int) list
  | Recorded of columns

type t = { label : string; kind : kind }

let label t = t.label

let of_program program = { label = program.Program.config.Config.name; kind = Generator program }

let of_schedule ~label phases =
  Fom_check.Checker.ensure ~code:"FOM-T041" ~path:"source.of_schedule"
    (phases <> [] && List.for_all (fun (_, budget) -> budget >= 1) phases)
    "phase schedule must be non-empty, with positive instruction budgets";
  { label; kind = Schedule phases }

let of_columns ?(label = "recorded") c =
  let ensure cond message =
    Fom_check.Checker.ensure ~code:"FOM-T110" ~path:"source.of_columns" cond message
  in
  let len = Array.length c.op in
  ensure (len > 0) "recorded trace must be non-empty";
  ensure
    (Array.length c.pc = len && Array.length c.ea = len && Array.length c.dep_off = len + 1)
    "columns must agree in length";
  for i = 0 to len - 1 do
    let tag = c.op.(i) and lo = c.dep_off.(i) and hi = c.dep_off.(i + 1) in
    ensure (tag >= 0 && tag < Opclass.count) "operation tag out of range";
    let opclass = Opclass.of_int tag in
    ensure
      (if Opclass.is_memory opclass || Opclass.is_control opclass then c.ea.(i) >= 0
       else c.ea.(i) = -1)
      "memory and control operations alone carry an address or direction, never negative";
    ensure (0 <= lo && lo <= hi && hi <= Array.length c.dep_val)
      "dependence offsets must rise within the dependence column";
    for k = lo to hi - 1 do
      ensure (c.dep_val.(k) >= 0 && c.dep_val.(k) < i) "dependences must name earlier instructions"
    done
  done;
  { label; kind = Recorded c }
