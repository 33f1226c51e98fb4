type t = { alu : int; mul : int; div : int; load : int; store : int; branch : int; jump : int }

let diagnostics t =
  let module C = Fom_check.Checker in
  let field path v = C.min_int ~code:"FOM-M012" ~path ~min:1 v in
  field "latency.alu" t.alu
  @ field "latency.mul" t.mul
  @ field "latency.div" t.div
  @ field "latency.load" t.load
  @ field "latency.store" t.store
  @ field "latency.branch" t.branch
  @ field "latency.jump" t.jump

let check t =
  Fom_check.Checker.run_exn (diagnostics t);
  t

let default = check { alu = 1; mul = 3; div = 12; load = 1; store = 1; branch = 1; jump = 1 }
let unit = check { alu = 1; mul = 1; div = 1; load = 1; store = 1; branch = 1; jump = 1 }

let make ?(alu = default.alu) ?(mul = default.mul) ?(div = default.div)
    ?(load = default.load) ?(store = default.store) ?(branch = default.branch)
    ?(jump = default.jump) () =
  check { alu; mul; div; load; store; branch; jump }

let of_class t = function
  | Opclass.Alu -> t.alu
  | Opclass.Mul -> t.mul
  | Opclass.Div -> t.div
  | Opclass.Load -> t.load
  | Opclass.Store -> t.store
  | Opclass.Branch -> t.branch
  | Opclass.Jump -> t.jump

let table t =
  Array.init Opclass.count (fun tag -> of_class t (Opclass.of_int tag))

let average t weight =
  List.fold_left
    (fun acc cls -> acc +. (weight cls *. float_of_int (of_class t cls)))
    0.0 Opclass.all
