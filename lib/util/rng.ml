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

(* Top 62 bits as a non-negative OCaml int. *)
let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let ensure ~path cond message = Fom_check.Checker.ensure ~code:"FOM-U001" ~path cond message

let split_seeds t n =
  ensure ~path:"rng.split_seeds" (n >= 0) "seed count must be non-negative";
  Array.init n (fun _ -> bits62 t)

let int t n =
  ensure ~path:"rng.int" (n > 0) "bound must be positive";
  bits62 t mod n

(* Top 53 bits as a non-negative OCaml int. *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

(* [bits * 2^-53] in [0, 1). Below 2^53 [float_of_int] gives the same
   double as [Int64.to_float], in one instruction where that is a C
   call, and scaling by 2^-53 is exact, so the product equals the
   quotient without a division's latency. *)
let two53 = 9007199254740992.0
let[@inline] uniform bits = float_of_int bits *. 0x1p-53
let[@inline] float t x = uniform (bits53 t) *. x
let bool t = Int64.logand (next t) 1L <> 0L

(* [u < p] for [u = bits * 2^-53], both sides scaled by 2^53 (exact):
   one comparison after the conversion. *)
let bernoulli t p = float_of_int (bits53 t) < p *. two53

(* The one geometric body: failures before the first success, with
   [log_q = Float.log (1 - p)], from a uniform [u] in [0, 1); [u = 0]
   stands for [1e-18]. *)
let[@inline] geometric_ratio u log_q = Float.log (if u <= 0.0 then 1e-18 else u) /. log_q

(* [p = 1] makes [log_q] infinite, and that draw is 0 without
   consuming the generator. *)
let geometric t p =
  ensure ~path:"rng.geometric" (p > 0.0 && p <= 1.0) "success probability must be within (0, 1]";
  let log_q = Float.log (1.0 -. p) in
  if log_q = Float.neg_infinity then 0 else int_of_float (geometric_ratio (float t 1.0) log_q)

(* The geometric draw by exact inverse-CDF lookup (the guide table of
   Chen and Asau, 1974): bucket [b] holds the uniforms whose top 8 of
   53 bits are [b]. The draw decreases with [u], so when both ends of
   a bucket give the same [k], every [u] between them does too.
   [Float.log] errs by under an ulp, so a computed ratio strays from
   the exact one by a relative 1e-15 at most; a bucket counts as
   decided only if its ends clear the integers around [k] by a
   relative [margin] far above that, and then every draw in it equals
   the log's. Bucket 0 (the [1e-18] rule) and the buckets holding a
   [q^j] boundary keep [-1] and take the log. *)
let bucket_bits = 8
let bucket_shift = 53 - bucket_bits
let margin = 1e-9

type distances = {
  short_cut : int;  (* [bits53 < short_cut] iff [bernoulli short_p] *)
  log_q : float;
  decided : int array;  (* per bucket: its draw, or -1 to take the log *)
  long_max : int;
}

let distances ~short_p ~p ~long_max =
  ensure ~path:"rng.distances.p" (p > 0.0 && p <= 1.0)
    "success probability must be within (0, 1]";
  ensure ~path:"rng.distances.long_max" (long_max > 0) "long bound must be positive";
  let log_q = Float.log (1.0 -. p) in
  let decided = Array.make (1 lsl bucket_bits) (-1) in
  for b = 1 to Array.length decided - 1 do
    (* The ratio is largest at the bucket's first uniform. *)
    let largest = geometric_ratio (uniform (b lsl bucket_shift)) log_q in
    let smallest = geometric_ratio (uniform (((b + 1) lsl bucket_shift) - 1)) log_q in
    let k = int_of_float smallest in
    if
      smallest >= float_of_int k *. (1.0 +. margin)
      && largest <= float_of_int (k + 1) *. (1.0 -. margin)
    then decided.(b) <- k
  done;
  (* [bits * 2^-53 < short_p] iff [bits < short_p * 2^53], exact for
     an integer [bits] below its ceiling; NaN is never short. *)
  let scaled = short_p *. two53 in
  let short_cut =
    if scaled >= two53 then 1 lsl 53 else if scaled > 0.0 then int_of_float (Float.ceil scaled) else 0
  in
  { short_cut; log_q; decided; long_max }

(* [bernoulli short_p], then [geometric p] or [int long_max], from the
   same outputs in the same order, in one call. Dune's default profile
   compiles with [-opaque], so nothing inlines across modules: a
   caller in [Stream] paid a call for each of the three, and a copy
   of the body there would get its uniform boxed. *)
let distance t d =
  if bits53 t < d.short_cut then
    if d.log_q = Float.neg_infinity then 1
    else
      let bits = bits53 t in
      let k = d.decided.(bits lsr bucket_shift) in
      if k >= 0 then 1 + k else 1 + int_of_float (geometric_ratio (uniform bits) d.log_q)
  else 1 + (bits62 t mod d.long_max)

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
