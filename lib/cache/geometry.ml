type t = { size : int; assoc : int; line : int }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* The shape rules only apply once all three fields are positive. *)
let diagnostics ?(path = "cache.geometry") t =
  let module C = Fom_check.Checker in
  let shaped = t.size > 0 && t.assoc > 0 && t.line > 0 in
  let way_bytes = t.assoc * t.line in
  C.within path
    (C.min_int ~code:"FOM-M010" ~path:".size" ~min:1 t.size
    @ C.min_int ~code:"FOM-M010" ~path:".assoc" ~min:1 t.assoc
    @ C.min_int ~code:"FOM-M010" ~path:".line" ~min:1 t.line
    @ (if (not shaped) || is_power_of_two t.line then C.ok
       else
         C.fail ~code:"FOM-M010" ~path:".line"
           (Printf.sprintf "line size must be a power of two, got %d" t.line))
    @ (if (not shaped) || t.size mod way_bytes = 0 then C.ok
       else
         C.fail ~code:"FOM-M010" ~path:".size"
           (Printf.sprintf "size %d must be a multiple of assoc * line = %d" t.size way_bytes))
    @
    if (not shaped) || (t.size mod way_bytes = 0 && is_power_of_two (t.size / way_bytes)) then
      C.ok
    else
      C.fail ~code:"FOM-M010" ~path:".size"
        (Printf.sprintf "set count must be a power of two, got %d" (t.size / way_bytes)))

let make ~size ~assoc ~line =
  let t = { size; assoc; line } in
  Fom_check.Checker.run_exn (diagnostics t);
  t

let sets t = t.size / (t.assoc * t.line)

let l1_baseline = make ~size:4096 ~assoc:4 ~line:128
let l2_baseline = make ~size:(512 * 1024) ~assoc:4 ~line:128
