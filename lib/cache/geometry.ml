type t = { size : int; assoc : int; line : int }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let diagnostics ?(path = "cache.geometry") t =
  let module C = Fom_check.Checker in
  C.all
    [
      C.min_int ~code:"FOM-M010" ~path:(path ^ ".size") ~min:1 t.size;
      C.min_int ~code:"FOM-M010" ~path:(path ^ ".assoc") ~min:1 t.assoc;
      C.min_int ~code:"FOM-M010" ~path:(path ^ ".line") ~min:1 t.line;
      (if t.size > 0 && t.assoc > 0 && t.line > 0 then
         C.all
           [
             C.check ~code:"FOM-M010" ~path:(path ^ ".line") (is_power_of_two t.line)
               (Printf.sprintf "line size must be a power of two, got %d" t.line);
             C.check ~code:"FOM-M010" ~path:(path ^ ".size")
               (t.size mod (t.assoc * t.line) = 0)
               (Printf.sprintf "size %d must be a multiple of assoc * line = %d" t.size
                  (t.assoc * t.line));
             C.check ~code:"FOM-M010" ~path:(path ^ ".size")
               (t.size mod (t.assoc * t.line) = 0
               && is_power_of_two (t.size / (t.assoc * t.line)))
               (Printf.sprintf "set count must be a power of two, got %d"
                  (t.size / (t.assoc * t.line)));
           ]
       else C.ok);
    ]

let make ~size ~assoc ~line =
  let t = { size; assoc; line } in
  Fom_check.Checker.run_exn (diagnostics t);
  t

let sets t = t.size / (t.assoc * t.line)
let line_address t addr = addr land lnot (t.line - 1)

let l1_baseline = make ~size:4096 ~assoc:4 ~line:128
let l2_baseline = make ~size:(512 * 1024) ~assoc:4 ~line:128
