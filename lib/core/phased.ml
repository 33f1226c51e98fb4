let combine weighted =
  let ensure ~path cond message =
    Fom_check.Checker.ensure ~code:"FOM-I030" ~path cond message
  in
  ensure ~path:"phased.weighted" (weighted <> []) "phase list must be non-empty";
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
  ensure ~path:"phased.weighted" (total > 0.0) "phase weights must sum to a positive total";
  let mean field =
    List.fold_left (fun acc (w, b) -> acc +. (w *. field b)) 0.0 weighted /. total
  in
  {
    Cpi.steady = mean (fun b -> b.Cpi.steady);
    branch = mean (fun b -> b.Cpi.branch);
    l1i = mean (fun b -> b.Cpi.l1i);
    l2i = mean (fun b -> b.Cpi.l2i);
    dcache = mean (fun b -> b.Cpi.dcache);
    dtlb = mean (fun b -> b.Cpi.dtlb);
  }
