type t = {
  name : string;
  instructions : int;
  alpha : float;
  beta : float;
  fit_r2 : float;
  avg_latency : float;
  mispredictions_per_instr : float;
  mispred_bursts : Fom_util.Distribution.t;
  l1i_misses_per_instr : float;
  l2i_misses_per_instr : float;
  short_misses_per_instr : float;
  long_misses_per_instr : float;
  long_miss_groups : Fom_util.Distribution.t;
  dtlb_misses_per_instr : float;
  dtlb_groups : Fom_util.Distribution.t;
}

(* Outcomes are never negative (Distribution.add rejects them), so
   group sizes are at least 1 exactly when no group has size 0. *)
let group_consistency ~path rate dist =
  let module C = Fom_check.Checker in
  let module D = Fom_util.Distribution in
  let observed = D.total dist > 0 in
  C.check ~severity:Fom_check.Diagnostic.Warning ~code:"FOM-I008" ~path
    (not (rate > 0.0 && not observed))
    "event rate is positive but the group distribution is empty (overlap factor defaults \
     to 1)"
  @ C.check ~severity:Fom_check.Diagnostic.Warning ~code:"FOM-I008" ~path
      (not (rate = 0.0 && observed))
      "group distribution is non-empty but the event rate is zero"
  @ C.check ~code:"FOM-I009" ~path (D.count dist 0 = 0) "group sizes must be at least 1"

(* A rate of events per instruction is a probability; the paper's
   eq. 1 decomposition is meaningless outside [0, 1]. *)
let check t =
  let module C = Fom_check.Checker in
  let rate path v = C.fraction ~code:"FOM-I005" ~path v in
  C.min_int ~code:"FOM-I001" ~path:"inputs.instructions" ~min:1 t.instructions
  @ C.positive_float ~code:"FOM-I002" ~path:"inputs.alpha" t.alpha
  @ C.positive_fraction ~code:"FOM-I003" ~path:"inputs.beta" t.beta
  @ C.min_float ~code:"FOM-I004" ~path:"inputs.avg_latency" ~min:1.0 t.avg_latency
  @ rate "inputs.mispredictions_per_instr" t.mispredictions_per_instr
  @ rate "inputs.l1i_misses_per_instr" t.l1i_misses_per_instr
  @ rate "inputs.l2i_misses_per_instr" t.l2i_misses_per_instr
  @ rate "inputs.short_misses_per_instr" t.short_misses_per_instr
  @ rate "inputs.long_misses_per_instr" t.long_misses_per_instr
  @ rate "inputs.dtlb_misses_per_instr" t.dtlb_misses_per_instr
  @ (if Float.is_finite t.fit_r2 && t.fit_r2 > 0.0 && t.fit_r2 <= 1.0 +. 1e-9 then C.ok
     else
       C.fail ~code:"FOM-I007" ~path:"inputs.fit_r2"
         (Printf.sprintf "fit r-squared must be within (0, 1], got %g" t.fit_r2))
  @ C.check ~code:"FOM-I010" ~path:"inputs.l1i_misses_per_instr"
      (t.l1i_misses_per_instr +. t.l2i_misses_per_instr <= 1.0 +. 1e-9)
      "combined instruction miss rates exceed one per instruction"
  @ C.check ~code:"FOM-I010" ~path:"inputs.short_misses_per_instr"
      (t.short_misses_per_instr +. t.long_misses_per_instr <= 1.0 +. 1e-9)
      "combined data miss rates exceed one per instruction"
  @ (if not (t.fit_r2 > 0.0 && t.fit_r2 < 0.5) then C.ok
     else
       C.fail ~severity:Fom_check.Diagnostic.Hint ~code:"FOM-I011" ~path:"inputs.fit_r2"
         (Printf.sprintf
            "power-law fit explains only r2 = %g of the IW curve; the model's eq. 1 rests on \
             this fit"
            t.fit_r2))
  @ group_consistency ~path:"inputs.mispred_bursts" t.mispredictions_per_instr
      t.mispred_bursts
  @ group_consistency ~path:"inputs.long_miss_groups" t.long_misses_per_instr
      t.long_miss_groups
  @ group_consistency ~path:"inputs.dtlb_groups" t.dtlb_misses_per_instr t.dtlb_groups

let validate t = Fom_check.Checker.run_exn (check t)

let mispred_burst_mean t =
  if Fom_util.Distribution.total t.mispred_bursts = 0 then 1.0
  else Fom_util.Distribution.mean t.mispred_bursts

(* Each group of overlapping misses costs one isolated penalty, so the
   average per-miss factor is groups/misses = 1/mean-group-size. This
   equals the paper's sum over the per-miss distribution f_LDM(i)/i. *)
let group_factor dist =
  if Fom_util.Distribution.total dist = 0 then 1.0
  else 1.0 /. Float.max 1.0 (Fom_util.Distribution.mean dist)

let long_group_factor t = group_factor t.long_miss_groups
let dtlb_group_factor t = group_factor t.dtlb_groups
