type spec = { entries : int; page_bits : int; walk_latency : int }

type t = Sa_cache.t

let diagnostics spec =
  let module C = Fom_check.Checker in
  (if spec.entries > 0 && spec.entries land (spec.entries - 1) = 0 then C.ok
   else
     C.fail ~code:"FOM-M011" ~path:"dtlb.entries"
       (Printf.sprintf "entry count must be a positive power of two, got %d" spec.entries))
  @ C.min_int ~code:"FOM-M011" ~path:"dtlb.page_bits" ~min:6 spec.page_bits
  @ C.min_int ~code:"FOM-M011" ~path:"dtlb.walk_latency" ~min:1 spec.walk_latency

let create spec =
  Fom_check.Checker.run_exn (diagnostics spec);
  (* A fully-associative cache whose lines are pages is exactly a
     TLB. *)
  let page = 1 lsl spec.page_bits in
  let geometry = Geometry.make ~size:(spec.entries * page) ~assoc:spec.entries ~line:page in
  Sa_cache.create geometry

let access = Sa_cache.access
