type spec =
  | Ideal
  | Always_taken
  | Bimodal of int
  | Gshare of int

let default_spec = Gshare 13

(* Two-bit saturating counters, one per byte, initialized weakly
   taken. *)
let fresh_counters bits = Bytes.make (1 lsl bits) '\002'
let counter_taken table i = Char.code (Bytes.get table i) >= 2

let counter_train table i taken =
  let c = Char.code (Bytes.get table i) in
  let c = if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1) in
  Bytes.set table i (Char.chr c)

type t =
  | I_ideal
  | I_always_taken
  | I_bimodal of { table : Bytes.t; mask : int }
  | I_gshare of { table : Bytes.t; mask : int; mutable history : int }

let diagnostics spec =
  let module C = Fom_check.Checker in
  match spec with
  | Ideal | Always_taken -> C.ok
  | Bimodal bits | Gshare bits ->
      if bits >= 1 && bits <= 28 then C.ok
      else
        C.fail ~code:"FOM-M014" ~path:"predictor.bits"
          (Printf.sprintf "table size log2 must be within [1, 28], got %d" bits)

let check_bits bits =
  Fom_check.Checker.ensure ~code:"FOM-M014" ~path:"predictor.bits"
    (bits >= 1 && bits <= 28)
    "table size log2 must be within [1, 28]"

let create spec =
  match spec with
  | Ideal -> I_ideal
  | Always_taken -> I_always_taken
  | Bimodal bits ->
      check_bits bits;
      I_bimodal { table = fresh_counters bits; mask = (1 lsl bits) - 1 }
  | Gshare bits ->
      check_bits bits;
      I_gshare { table = fresh_counters bits; mask = (1 lsl bits) - 1; history = 0 }

(* The predicted direction. [taken] is the resolved direction, needed
   only by [Ideal]; real predictors ignore it. No state change. *)
let predict t ~pc ~taken =
  match t with
  | I_ideal -> taken
  | I_always_taken -> true
  | I_bimodal b -> counter_taken b.table (pc lsr 2 land b.mask)
  | I_gshare g -> counter_taken g.table ((pc lsr 2) lxor g.history land g.mask)

let train t ~pc ~taken =
  match t with
  | I_ideal | I_always_taken -> ()
  | I_bimodal b -> counter_train b.table (pc lsr 2 land b.mask) taken
  | I_gshare g ->
      counter_train g.table ((pc lsr 2) lxor g.history land g.mask) taken;
      g.history <- ((g.history lsl 1) lor (if taken then 1 else 0)) land g.mask

let observe t ~pc ~taken =
  let correct = predict t ~pc ~taken = taken in
  train t ~pc ~taken;
  correct
