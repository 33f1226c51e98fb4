let mean a =
  if Array.length a = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let max a =
  Fom_check.Checker.ensure ~code:"FOM-U001" ~path:"stats.max" (Array.length a > 0) "empty sample";
  Array.fold_left Stdlib.max a.(0) a

module Acc = struct
  (* The running mean sits in a one-element float array, so an update
     stores an unboxed float and allocates nothing. *)
  type t = { mutable count : int; mean : float array }

  let create () = { count = 0; mean = [| 0.0 |] }

  let add t x =
    t.count <- t.count + 1;
    t.mean.(0) <- t.mean.(0) +. ((x -. t.mean.(0)) /. float_of_int t.count)

  let mean t = t.mean.(0)
end
