type phase = { config : Config.t; instructions : int }

let check phases =
  let module C = Fom_check.Checker in
  C.all
    (C.check ~code:"FOM-T040" ~path:"phases" (phases <> []) "phase schedule must be non-empty"
    :: List.mapi
         (fun i p ->
           C.min_int ~code:"FOM-T041"
             ~path:(Printf.sprintf "phases[%d].instructions" i)
             ~min:1 p.instructions)
         phases)

let source phases =
  Fom_check.Checker.run_exn (check phases);
  Source.of_schedule
    ~label:(String.concat "+" (List.map (fun p -> p.config.Config.name) phases))
    (List.map (fun p -> (Program.generate p.config, p.instructions)) phases)
