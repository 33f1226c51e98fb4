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
  let field path v = C.min_int ~code:"FOM-M013" ~path ~min:1 v in
  field "fu_limits.alu" t.alu
  @ field "fu_limits.mul" t.mul
  @ field "fu_limits.div" t.div
  @ field "fu_limits.load" t.load
  @ field "fu_limits.store" t.store
  @ field "fu_limits.branch" t.branch
  @ field "fu_limits.jump" t.jump

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
