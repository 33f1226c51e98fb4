type t = { counts : (int, int) Hashtbl.t; mutable total : int }

let create () = { counts = Hashtbl.create 16; total = 0 }

let add_many t k n =
  Fom_check.Checker.ensure ~code:"FOM-U001" ~path:"distribution.add" (k >= 0 && n >= 0)
    "outcomes and counts must be non-negative";
  if n > 0 then begin
    let cur = Option.value (Hashtbl.find_opt t.counts k) ~default:0 in
    Hashtbl.replace t.counts k (cur + n);
    t.total <- t.total + n
  end

let add t k = add_many t k 1
let total t = t.total
let count t k = Option.value (Hashtbl.find_opt t.counts k) ~default:0

let support t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.counts [] |> List.sort compare

let expect t f =
  if t.total = 0 then 0.0
  else
    Hashtbl.fold
      (fun k n acc -> acc +. (float_of_int n *. f k))
      t.counts 0.0
    /. float_of_int t.total

let mean t = expect t float_of_int

let of_list pairs =
  let t = create () in
  List.iter (fun (k, n) -> add_many t k n) pairs;
  t

let to_list t = List.map (fun k -> (k, count t k)) (support t)
