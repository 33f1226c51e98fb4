let used x = x
let internal x = x
let aliased x = internal x
let opened x = x
let unused = 0
let test_only = 0
let kept = 0
let checked x = assert (x > 0)
let broken () = failwith "no"
let leave () = exit 1
let first l = List.hd l
let ensure = Fom_check.Checker.ensure ~code:"FOM-X999"
let worst a b = max a b
let named v = Fom_check.Checker.min_int ~code:"FOM-X999" ~path:("widget." ^ "v") ~min:1 v

let named_on_failure v =
  if v >= 1 then Fom_check.Checker.ok
  else Fom_check.Checker.fail ~code:"FOM-X999" ~path:"widget.v" (Printf.sprintf "got %d" v)

module Inner = struct
  let counted = 0
  let dead = 0
end

let tuned ?(knob = 1) ?(depth = 2) () = knob + depth
let spun ?(turns = 1) () = turns
let nested ?(inner = 1) x = inner + x
let scaled ?(factor = 1) x = factor * x

type level = int
let level x = x
type gauge = int
let gauge x = x
