(* Order statistics over repeated measurements. The quartiles use the
   method of Python's statistics.quantiles(values, n=4) (its default,
   "exclusive"), so a spread printed here is the spread a consumer of
   the JSON computes from the same values. *)

let sorted values = Array.of_list (List.sort Float.compare values)

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no values"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.quartiles: no values"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread values =
  let q1, _, q3 = quartiles values in
  let m = median values in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* Linear-interpolation percentile, [p] in [0, 100]. *)
let percentile values p =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. (rank -. float_of_int lo))

let mean = function
  | [] -> 0.0
  | values -> List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

let max = function [] -> 0.0 | v :: rest -> List.fold_left Float.max v rest

let min = function [] -> 0.0 | v :: rest -> List.fold_left Float.min v rest
