type spec =
  | Ideal
  | Always_taken
  | Bimodal of int
  | Gshare of int
  | Local of int
  | Tournament of int

let default_spec = Gshare 13

type stats = { branches : int; mispredictions : int }

(* Two-bit saturating counters, one per byte, initialized weakly
   taken. *)
let fresh_counters bits = Bytes.make (1 lsl bits) '\002'
let counter_taken table i = Char.code (Bytes.get table i) >= 2

let counter_train table i taken =
  let c = Char.code (Bytes.get table i) in
  let c = if taken then Stdlib.min 3 (c + 1) else Stdlib.max 0 (c - 1) in
  Bytes.set table i (Char.chr c)

type impl =
  | I_ideal
  | I_always_taken
  | I_bimodal of { table : Bytes.t; mask : int }
  | I_gshare of { table : Bytes.t; mask : int; mutable history : int }
  | I_local of { histories : int array; table : Bytes.t; mask : int }
  | I_tournament of {
      bimodal : Bytes.t;
      gshare : Bytes.t;
      chooser : Bytes.t;
      mask : int;
      mutable history : int;
    }

(* Counters are mutable fields so that [observe] allocates nothing;
   {!stats} builds the record when asked. *)
type t = { spec : spec; impl : impl; mutable branches : int; mutable mispredictions : int }

let diagnostics spec =
  let module C = Fom_check.Checker in
  match spec with
  | Ideal | Always_taken -> C.ok
  | Bimodal bits | Gshare bits | Local bits | Tournament bits ->
      C.check ~code:"FOM-M014" ~path:"predictor.bits"
        (bits >= 1 && bits <= 28)
        (Printf.sprintf "table size log2 must be within [1, 28], got %d" bits)

let check_bits bits =
  Fom_check.Checker.ensure ~code:"FOM-M014" ~path:"predictor.bits"
    (bits >= 1 && bits <= 28)
    "table size log2 must be within [1, 28]"

let create spec =
  let impl =
    match spec with
    | Ideal -> I_ideal
    | Always_taken -> I_always_taken
    | Bimodal bits ->
        check_bits bits;
        I_bimodal { table = fresh_counters bits; mask = (1 lsl bits) - 1 }
    | Gshare bits ->
        check_bits bits;
        I_gshare { table = fresh_counters bits; mask = (1 lsl bits) - 1; history = 0 }
    | Local bits ->
        check_bits bits;
        I_local
          {
            histories = Array.make (1 lsl bits) 0;
            table = fresh_counters bits;
            mask = (1 lsl bits) - 1;
          }
    | Tournament bits ->
        check_bits bits;
        I_tournament
          {
            bimodal = fresh_counters bits;
            gshare = fresh_counters bits;
            chooser = fresh_counters bits;
            mask = (1 lsl bits) - 1;
            history = 0;
          }
  in
  { spec; impl; branches = 0; mispredictions = 0 }

let spec t = t.spec

let predict t ~pc ~taken =
  match t.impl with
  | I_ideal -> taken
  | I_always_taken -> true
  | I_bimodal b -> counter_taken b.table (pc lsr 2 land b.mask)
  | I_gshare g -> counter_taken g.table ((pc lsr 2) lxor g.history land g.mask)
  | I_local l ->
      let history = l.histories.(pc lsr 2 land l.mask) in
      counter_taken l.table (history land l.mask)
  | I_tournament tn ->
      let slot = pc lsr 2 land tn.mask in
      if counter_taken tn.chooser slot then
        counter_taken tn.gshare ((pc lsr 2) lxor tn.history land tn.mask)
      else counter_taken tn.bimodal slot

let train t ~pc ~taken =
  match t.impl with
  | I_ideal | I_always_taken -> ()
  | I_bimodal b -> counter_train b.table (pc lsr 2 land b.mask) taken
  | I_gshare g ->
      counter_train g.table ((pc lsr 2) lxor g.history land g.mask) taken;
      g.history <- ((g.history lsl 1) lor (if taken then 1 else 0)) land g.mask
  | I_local l ->
      let hslot = pc lsr 2 land l.mask in
      let history = l.histories.(hslot) in
      counter_train l.table (history land l.mask) taken;
      l.histories.(hslot) <- ((history lsl 1) lor (if taken then 1 else 0)) land l.mask
  | I_tournament tn ->
      let slot = pc lsr 2 land tn.mask in
      let gslot = (pc lsr 2) lxor tn.history land tn.mask in
      let bimodal_right = counter_taken tn.bimodal slot = taken in
      let gshare_right = counter_taken tn.gshare gslot = taken in
      (* The chooser moves toward the component that was right when
         they disagree. *)
      if bimodal_right <> gshare_right then counter_train tn.chooser slot gshare_right;
      counter_train tn.bimodal slot taken;
      counter_train tn.gshare gslot taken;
      tn.history <- ((tn.history lsl 1) lor (if taken then 1 else 0)) land tn.mask

let observe t ~pc ~taken =
  let correct = predict t ~pc ~taken = taken in
  train t ~pc ~taken;
  t.branches <- t.branches + 1;
  if not correct then t.mispredictions <- t.mispredictions + 1;
  correct

let stats t : stats = { branches = t.branches; mispredictions = t.mispredictions }

let misprediction_rate t =
  if t.branches = 0 then 0.0 else float_of_int t.mispredictions /. float_of_int t.branches

let reset_stats t =
  t.branches <- 0;
  t.mispredictions <- 0
