(* One bypass cycle on each of one dependence per instruction, paid
   with probability (k-1)/k. *)
let effective_characteristic ~clusters (iw : Iw_characteristic.t) =
  Fom_check.Checker.ensure ~code:"FOM-I030" ~path:"clustering.clusters" (clusters >= 1)
    "cluster count must be at least 1";
  let penalty = float_of_int (clusters - 1) /. float_of_int clusters in
  { iw with Iw_characteristic.avg_latency = iw.Iw_characteristic.avg_latency +. penalty }
