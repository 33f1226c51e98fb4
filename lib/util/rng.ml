(* The 64-bit SplitMix64 state lives unboxed in 8 bytes: a
   [mutable state : int64] field would box a fresh Int64 on every
   draw. [next] keeps the add and the mix in one body so the int64
   intermediates stay in registers; every draw below goes through it
   and returns an immediate (or a float the caller consumes inline),
   so no draw allocates. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t = next t
let split t = of_state (next t)
let copy = Bytes.copy

(* Top 62 bits as a non-negative OCaml int. *)
let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let ensure ~path cond message = Fom_check.Checker.ensure ~code:"FOM-U001" ~path cond message

let split_n t n =
  ensure ~path:"rng.split_n" (n >= 0) "stream count must be non-negative";
  Array.init n (fun _ -> split t)

let split_seeds t n =
  ensure ~path:"rng.split_seeds" (n >= 0) "seed count must be non-negative";
  Array.init n (fun _ -> bits62 t)

let int t n =
  ensure ~path:"rng.int" (n > 0) "bound must be positive";
  bits62 t mod n

let[@inline] float t x =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. x

let bool t = Int64.logand (next t) 1L <> 0L
let bernoulli t p = float t 1.0 < p

let geometric t p =
  ensure ~path:"rng.geometric" (p > 0.0 && p <= 1.0) "success probability must be within (0, 1]";
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0.0 then 1e-18 else u in
    int_of_float (Float.log u /. Float.log (1.0 -. p))

(* Loops keep the sum and the running prefix unboxed, where
   [Array.fold_left ( +. )] would box every partial sum. Both sums run
   left to right, which fixes the draws. *)
let categorical t weights =
  let last = Array.length weights - 1 in
  let total = ref 0.0 in
  for i = 0 to last do
    total := !total +. weights.(i)
  done;
  ensure ~path:"rng.categorical" (!total > 0.0) "weights must have a positive sum";
  let u = float t !total in
  let i = ref 0 and acc = ref 0.0 in
  while
    !i < last
    &&
    (acc := !acc +. weights.(!i);
     not (u < !acc))
  do
    incr i
  done;
  !i
