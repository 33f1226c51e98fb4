let latency_penalty ~clusters ?(bypass = 1.0) ?(deps_per_instr = 1.0) () =
  let ensure ~path cond message =
    Fom_check.Checker.ensure ~code:"FOM-I030" ~path cond message
  in
  ensure ~path:"clustering.clusters" (clusters >= 1) "cluster count must be at least 1";
  ensure ~path:"clustering.bypass"
    (bypass >= 0.0 && deps_per_instr >= 0.0)
    "bypass cost and dependences per instruction must be non-negative";
  deps_per_instr *. bypass *. float_of_int (clusters - 1) /. float_of_int clusters

let effective_characteristic ~clusters ?bypass ?deps_per_instr (iw : Iw_characteristic.t) =
  let penalty = latency_penalty ~clusters ?bypass ?deps_per_instr () in
  { iw with Iw_characteristic.avg_latency = iw.Iw_characteristic.avg_latency +. penalty }
