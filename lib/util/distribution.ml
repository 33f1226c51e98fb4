(* [sum] is the running sum of outcome * count, so [mean] is O(1) and
   exact: the float of an integer sum is the float sum of its exact
   integer terms while they stay below 2^53. *)
type t = { counts : (int, int) Hashtbl.t; mutable total : int; mutable sum : int }

let create () = { counts = Hashtbl.create 16; total = 0; sum = 0 }

let count t k = match Hashtbl.find t.counts k with n -> n | exception Not_found -> 0

let add_many t k n =
  Fom_check.Checker.ensure ~code:"FOM-U001" ~path:"distribution.add" (k >= 0 && n >= 0)
    "outcomes and counts must be non-negative";
  if n > 0 then begin
    Hashtbl.replace t.counts k (count t k + n);
    t.total <- t.total + n;
    t.sum <- t.sum + (k * n)
  end

let add t k = add_many t k 1
let total t = t.total
let mean t = if t.total = 0 then 0.0 else float_of_int t.sum /. float_of_int t.total

let of_list pairs =
  let t = create () in
  List.iter (fun (k, n) -> add_many t k n) pairs;
  t

let to_list t = List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.counts [])
