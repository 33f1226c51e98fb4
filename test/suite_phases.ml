(* Tests for phased workloads and per-phase model composition. *)

module Phases = Fom_trace.Phases
module Packed = Fom_trace.Packed
module Cpi = Fom_model.Cpi
module Phased = Fom_model.Phased

let schedule =
  [
    { Phases.config = Fom_workloads.Spec2000.find "gzip"; instructions = 3000 };
    { Phases.config = Fom_workloads.Spec2000.find "mcf"; instructions = 2000 };
  ]

let record source ~n = Row.take (Packed.of_source source ~n) ~n

let test_indices_sequential_and_deps_valid () =
  let source = Phases.source schedule in
  let trace = record source ~n:12000 in
  Array.iteri
    (fun i (ins : Row.t) ->
      Alcotest.(check int) "sequential" i ins.Row.index;
      Array.iter
        (fun d -> if not (d >= 0 && d < i) then Alcotest.failf "dep %d at %d" d i)
        ins.Row.deps)
    trace

let test_phases_switch_content () =
  (* The first phase is gzip (no chase region addresses); the second
     is mcf (which touches its 16 MiB chase region). Distinguish the
     phases by the address footprint of their loads. *)
  let source = Phases.source schedule in
  let trace = record source ~n:5000 in
  let max_addr lo hi =
    Array.fold_left
      (fun acc (ins : Row.t) ->
        if ins.Row.index >= lo && ins.Row.index < hi then
          match ins.Row.mem with Some a -> max acc a | None -> acc
        else acc)
      0 trace
  in
  let gzip_phase = max_addr 0 3000 and mcf_phase = max_addr 3000 5000 in
  Alcotest.(check bool)
    (Printf.sprintf "mcf footprint (0x%x) larger than gzip's (0x%x)" mcf_phase gzip_phase)
    true
    (mcf_phase > gzip_phase)

let test_phases_deterministic () =
  let a = record (Phases.source schedule) ~n:4000 in
  let b = record (Phases.source schedule) ~n:4000 in
  Array.iteri
    (fun i (x : Row.t) ->
      Alcotest.(check int) "same pc" x.Row.pc b.(i).Row.pc;
      Alcotest.(check bool) "same deps" true (x.Row.deps = b.(i).Row.deps))
    a

let test_phases_run_through_machine () =
  let source = Phases.source schedule in
  let stats = Fom_uarch.Simulate.run_source Fom_uarch.Config.baseline source ~n:10000 in
  Alcotest.(check bool) "sane cpi" true
    (Fom_uarch.Stats.cpi stats > 0.25 && Fom_uarch.Stats.cpi stats < 20.0)

let breakdown steady =
  { Cpi.steady; branch = 0.1; l1i = 0.0; l2i = 0.0; dcache = 0.5; dtlb = 0.0 }

let test_combine_weighted_mean () =
  let combined = Phased.combine [ (1.0, breakdown 0.2); (3.0, breakdown 0.6) ] in
  Alcotest.(check (float 1e-9)) "weighted steady" 0.5 combined.Cpi.steady;
  Alcotest.(check (float 1e-9)) "other fields pass through" 0.5 combined.Cpi.dcache

let test_combine_single_identity () =
  let b = breakdown 0.3 in
  let combined = Phased.combine [ (42.0, b) ] in
  Alcotest.(check (float 1e-9)) "identity" (Cpi.total b) (Cpi.total combined)

let suite =
  ( "phases",
    [
      Alcotest.test_case "indices sequential, deps valid" `Quick
        test_indices_sequential_and_deps_valid;
      Alcotest.test_case "phases switch content" `Quick test_phases_switch_content;
      Alcotest.test_case "deterministic" `Quick test_phases_deterministic;
      Alcotest.test_case "runs through the machine" `Quick test_phases_run_through_machine;
      Alcotest.test_case "combine is a weighted mean" `Quick test_combine_weighted_mean;
      Alcotest.test_case "combine identity" `Quick test_combine_single_identity;
    ] )
