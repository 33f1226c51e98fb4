let sum a = Array.fold_left ( +. ) 0.0 a

let mean a = if Array.length a = 0 then 0.0 else sum a /. float_of_int (Array.length a)

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let m = mean a in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a in
    acc /. float_of_int n

let stddev a = sqrt (variance a)

let ensure = Fom_check.Checker.ensure ~code:"FOM-U001"

let min a =
  ensure ~path:"stats.min" (Array.length a > 0) "empty sample";
  Array.fold_left Stdlib.min a.(0) a

let max a =
  ensure ~path:"stats.max" (Array.length a > 0) "empty sample";
  Array.fold_left Stdlib.max a.(0) a

let percentile a p =
  ensure ~path:"stats.percentile" (Array.length a > 0) "empty sample";
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let weighted_mean pairs =
  let wsum = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs in
  if wsum = 0.0 then 0.0
  else
    let vsum = Array.fold_left (fun acc (v, w) -> acc +. (v *. w)) 0.0 pairs in
    vsum /. wsum

let geometric_mean a =
  if Array.length a = 0 then 0.0
  else
    let logsum = Array.fold_left (fun acc x -> acc +. Float.log x) 0.0 a in
    Float.exp (logsum /. float_of_int (Array.length a))

let relative_errors reference candidate =
  ensure ~path:"stats.relative_errors"
    (Array.length reference = Array.length candidate)
    "reference and candidate must have the same length";
  let errs = ref [] in
  Array.iteri
    (fun i r ->
      if r <> 0.0 then errs := (Float.abs (candidate.(i) -. r) /. Float.abs r) :: !errs)
    reference;
  Array.of_list !errs

let mean_abs_error reference candidate = mean (relative_errors reference candidate)

let max_abs_error reference candidate =
  let errs = relative_errors reference candidate in
  if Array.length errs = 0 then 0.0 else max errs

module Acc = struct
  (* The float state sits in one flat float array — mean, m2, min, max
     — so an update stores unboxed floats and allocates nothing. *)
  type t = { mutable count : int; f : float array }

  let mean_ = 0
  let m2_ = 1
  let min_ = 2
  let max_ = 3
  let create () = { count = 0; f = [| 0.0; 0.0; infinity; neg_infinity |] }

  let add t x =
    let f = t.f in
    t.count <- t.count + 1;
    let delta = x -. f.(mean_) in
    f.(mean_) <- f.(mean_) +. (delta /. float_of_int t.count);
    f.(m2_) <- f.(m2_) +. (delta *. (x -. f.(mean_)));
    if x < f.(min_) then f.(min_) <- x;
    if x > f.(max_) then f.(max_) <- x

  let count t = t.count
  let mean t = t.f.(mean_)
  let variance t = if t.count < 2 then 0.0 else t.f.(m2_) /. float_of_int t.count
  let min t = t.f.(min_)
  let max t = t.f.(max_)
end
