type ctrl = { target : int; taken : bool }

type t = {
  index : int;
  pc : int;
  opclass : Opclass.t;
  deps : int array;
  mem : int option;
  ctrl : ctrl option;
}

(* Static messages: [make] runs once per generated instruction, so the
   happy path must not allocate. *)
let ensure ~path cond message = Fom_check.Checker.ensure ~code:"FOM-T120" ~path cond message

(* A loop: [Array.for_all] with a closure over [index] would allocate
   the closure on every [make]. *)
let deps_precede deps index =
  let ok = ref true in
  for k = 0 to Array.length deps - 1 do
    let d = deps.(k) in
    if d < 0 || d >= index then ok := false
  done;
  !ok

let make ~index ~pc ~opclass ?(deps = [||]) ?mem ?ctrl () =
  ensure ~path:"instr.index" (index >= 0) "dynamic index must be non-negative";
  ensure ~path:"instr.deps" (deps_precede deps index)
    "dependences must name earlier instructions";
  ensure ~path:"instr.mem"
    (Opclass.is_memory opclass = Option.is_some mem)
    "memory operations, and only they, carry an address";
  ensure ~path:"instr.ctrl"
    (Opclass.is_control opclass = Option.is_some ctrl)
    "control operations, and only they, carry direction info";
  { index; pc; opclass; deps; mem; ctrl }

let pp fmt t =
  Format.fprintf fmt "#%d pc=0x%x %a" t.index t.pc Opclass.pp t.opclass;
  Option.iter (fun a -> Format.fprintf fmt " [0x%x]" a) t.mem;
  Option.iter
    (fun c -> Format.fprintf fmt " %s->0x%x" (if c.taken then "T" else "N") c.target)
    t.ctrl
