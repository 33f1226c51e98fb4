(* Tests for the benchmark's own logic: quartiles as Python computes
   them, the self-time rollup, and the invariants and stored digests
   that make a layer call count as failed. *)

open Perfbench

let close = Alcotest.float 1e-9

let test_quartiles () =
  let q1, q2, q3 = Summary.quartiles [ 4.0; 1.0; 3.0; 2.0 ] in
  (* statistics.quantiles([1, 2, 3, 4], n=4) *)
  Alcotest.check close "q1" 1.25 q1;
  Alcotest.check close "q2" 2.5 q2;
  Alcotest.check close "q3" 3.75 q3;
  let q1, _, q3 = Summary.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1 of 1..10" 2.75 q1;
  Alcotest.check close "q3 of 1..10" 8.25 q3;
  Alcotest.check close "median odd" 2.0 (Summary.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "median even" 2.5 (Summary.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "spread" (2.5 /. 2.5) (Summary.spread [ 4.0; 1.0; 3.0; 2.0 ])

let ev domain name phase ts_ns = { Rollup.domain; name; phase; ts_ns }

let test_rollup () =
  let r =
    Rollup.of_events
      [
        ev 0 "a" Rollup.Begin 0; ev 0 "b" Rollup.Begin 10; ev 0 "b" Rollup.End 30;
        ev 0 "a" Rollup.End 100; ev 1 "c" Rollup.Begin 5; ev 1 "c" Rollup.End 55;
        (* open at the end: closed at the domain's last event *)
        ev 0 "d" Rollup.Begin 120; ev 0 "e" Rollup.End 150;
      ]
  in
  Alcotest.(check int) "a self" 80 (Rollup.self_ns r "a");
  Alcotest.(check int) "a inclusive" 100 (Rollup.inclusive_ns r "a");
  Alcotest.(check int) "b self" 20 (Rollup.self_ns r "b");
  Alcotest.(check int) "c self" 50 (Rollup.self_ns r "c");
  Alcotest.(check int) "d closed at last event" 30 (Rollup.self_ns r "d");
  Alcotest.(check int) "self sums to covered" r.Rollup.covered_ns (Rollup.total_self_ns r);
  Alcotest.(check int) "unattributed" (2 * 150 - 180)
    (Rollup.unattributed_ns r ~domains:2 ~wall_ns:150)

let test_failed_calls () =
  let program = Adapter.generate (Adapter.preset "gzip") in
  let n = 2000 in
  let probe = Probe.create (Digests.recording ()) in
  let run ok = Probe.call probe "sim" ~ok (fun () -> Adapter.sim_program Adapter.real program ~n) in
  let width = Adapter.width Adapter.real in
  let s = Option.get (run (Probe.sim_ok ~n ~width)) in
  Alcotest.(check int) "valid run passes" 0 (Probe.failed probe);
  let perturbed = { s with Adapter.Stats.instructions = s.Adapter.Stats.instructions + width } in
  Alcotest.(check bool) "perturbed stats rejected" false (Probe.sim_ok ~n ~width perturbed);
  ignore (run (fun _ -> Probe.sim_ok ~n ~width perturbed));
  ignore (Probe.call probe "boom" ~ok:(fun _ -> true) (fun () -> failwith "boom"));
  Alcotest.(check int) "attempted" 3 (Probe.attempted probe);
  Alcotest.(check int) "failed" 2 (Probe.failed probe)

let test_digests () =
  let program = Adapter.generate (Adapter.preset "gzip") in
  let n = 2000 in
  let width = Adapter.width Adapter.real in
  let sim probe =
    Probe.call probe "sim" ~key:"gzip" ~digest:Digests.of_value ~ok:(Probe.sim_ok ~n ~width) (fun () ->
        Adapter.sim_program Adapter.real program ~n)
  in
  let recorded = Digests.recording () in
  let s = Option.get (sim (Probe.create recorded)) in
  let path = "test_digests.txt" in
  Alcotest.(check int) "one digest written" 1 (Digests.write recorded path);
  let stored = Digests.load path in
  Sys.remove path;
  let probe = Probe.create stored in
  ignore (sim probe);
  Alcotest.(check int) "same output passes" 0 (Probe.failed probe);
  (* One more cycle keeps every invariant but changes the output. *)
  let perturbed = { s with Adapter.Stats.cycles = s.Adapter.Stats.cycles + 1 } in
  Alcotest.(check bool) "perturbed stats keep the invariants" true (Probe.sim_ok ~n ~width perturbed);
  ignore (Probe.call probe "sim" ~key:"gzip" ~digest:Digests.of_value ~ok:(Probe.sim_ok ~n ~width) (fun () -> perturbed));
  ignore (Probe.call probe "sim" ~key:"unknown" ~digest:Digests.of_value ~ok:(fun _ -> true) (fun () -> s));
  Alcotest.(check int) "perturbed and unknown outputs fail" 2 (Probe.failed probe)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "rollup" `Quick test_rollup;
          Alcotest.test_case "failed calls" `Quick test_failed_calls;
          Alcotest.test_case "stored digests" `Quick test_digests;
        ] );
    ]
