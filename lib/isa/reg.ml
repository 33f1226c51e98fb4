type t = int

let count = 32

let of_int i =
  Fom_check.Checker.ensure ~code:"FOM-T121" ~path:"reg.of_int"
    (i >= 0 && i < count)
    "register index out of range";
  i

let to_int r = r
let pp fmt r = Format.fprintf fmt "r%d" r
