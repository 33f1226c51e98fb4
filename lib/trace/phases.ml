type phase = { config : Config.t; instructions : int }

let check phases =
  let module C = Fom_check.Checker in
  C.check ~code:"FOM-T040" ~path:"phases" (phases <> []) "phase schedule must be non-empty"
  @ C.all
      (List.mapi
         (fun i p ->
           if p.instructions >= 1 then C.ok
           else
             C.fail ~code:"FOM-T041"
               ~path:(Printf.sprintf "phases[%d].instructions" i)
               (Printf.sprintf "must be at least 1, got %d" p.instructions))
         phases)

let source phases =
  Fom_check.Checker.run_exn (check phases);
  Source.of_schedule
    ~label:(String.concat "+" (List.map (fun p -> p.config.Config.name) phases))
    (List.map (fun p -> (Program.generate p.config, p.instructions)) phases)
