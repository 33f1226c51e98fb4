(* Tests for Fom_isa: operation classes and latencies. *)

module Opclass = Fom_isa.Opclass
module Latency = Fom_isa.Latency

let test_opclass_predicates () =
  Alcotest.(check bool) "load is memory" true (Opclass.is_memory Opclass.Load);
  Alcotest.(check bool) "store is memory" true (Opclass.is_memory Opclass.Store);
  Alcotest.(check bool) "alu not memory" false (Opclass.is_memory Opclass.Alu);
  Alcotest.(check bool) "branch is control" true (Opclass.is_control Opclass.Branch);
  Alcotest.(check bool) "jump is control" true (Opclass.is_control Opclass.Jump);
  Alcotest.(check bool) "mul not control" false (Opclass.is_control Opclass.Mul);
  Alcotest.(check (list string))
    "result producers" [ "alu"; "mul"; "div"; "load" ]
    (List.map Opclass.to_string (List.filter Opclass.has_result Opclass.all))

let test_opclass_all_distinct () =
  let names = List.map Opclass.to_string Opclass.all in
  Alcotest.(check int) "7 classes" 7 (List.length (List.sort_uniq compare names))

let test_latency_default () =
  Alcotest.(check int) "alu" 1 (Latency.of_class Latency.default Opclass.Alu);
  Alcotest.(check int) "mul" 3 (Latency.of_class Latency.default Opclass.Mul);
  Alcotest.(check int) "div" 12 (Latency.of_class Latency.default Opclass.Div)

let test_latency_unit () =
  List.iter
    (fun c -> Alcotest.(check int) "unit latency" 1 (Latency.of_class Latency.unit c))
    Opclass.all

let test_latency_make_overrides () =
  let l = Latency.make ~mul:5 () in
  Alcotest.(check int) "override" 5 (Latency.of_class l Opclass.Mul);
  Alcotest.(check int) "default kept" 1 (Latency.of_class l Opclass.Alu)

let test_latency_average () =
  (* Half alu (1 cycle), half mul (3 cycles) -> 2.0. *)
  let weight = function Opclass.Alu -> 0.5 | Opclass.Mul -> 0.5 | _ -> 0.0 in
  Alcotest.(check (float 1e-9)) "average" 2.0 (Latency.average Latency.default weight)

let suite =
  ( "isa",
    [
      Alcotest.test_case "opclass predicates" `Quick test_opclass_predicates;
      Alcotest.test_case "opclass distinct names" `Quick test_opclass_all_distinct;
      Alcotest.test_case "latency defaults" `Quick test_latency_default;
      Alcotest.test_case "latency unit" `Quick test_latency_unit;
      Alcotest.test_case "latency overrides" `Quick test_latency_make_overrides;
      Alcotest.test_case "latency average" `Quick test_latency_average;
    ] )
