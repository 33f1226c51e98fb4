type t = {
  alu : int;
  mul : int;
  div : int;
  load : int;
  store : int;
  branch : int;
  jump : int;
}

let unbounded =
  {
    alu = max_int;
    mul = max_int;
    div = max_int;
    load = max_int;
    store = max_int;
    branch = max_int;
    jump = max_int;
  }

let diagnostics t =
  let module C = Fom_check.Checker in
  let field name v = C.min_int ~code:"FOM-M013" ~path:("fu_limits." ^ name) ~min:1 v in
  C.all
    [
      field "alu" t.alu;
      field "mul" t.mul;
      field "div" t.div;
      field "load" t.load;
      field "store" t.store;
      field "branch" t.branch;
      field "jump" t.jump;
    ]

let make ?(alu = max_int) ?(mul = max_int) ?(div = max_int) ?(load = max_int)
    ?(store = max_int) ?(branch = max_int) ?(jump = max_int) () =
  let t = { alu; mul; div; load; store; branch; jump } in
  Fom_check.Checker.run_exn (diagnostics t);
  t

let of_class t = function
  | Opclass.Alu -> t.alu
  | Opclass.Mul -> t.mul
  | Opclass.Div -> t.div
  | Opclass.Load -> t.load
  | Opclass.Store -> t.store
  | Opclass.Branch -> t.branch
  | Opclass.Jump -> t.jump
