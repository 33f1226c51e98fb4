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

module Inner = struct
  let counted = 0
  let dead = 0
end
