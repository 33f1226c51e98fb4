(* Tests for Fom_isa: registers, operation classes, latencies,
   instruction construction. *)

module Reg = Fom_isa.Reg
module Opclass = Fom_isa.Opclass
module Latency = Fom_isa.Latency
module Instr = Fom_isa.Instr

let test_reg_roundtrip () =
  for i = 0 to Reg.count - 1 do
    Alcotest.(check int) "roundtrip" i (Reg.to_int (Reg.of_int i))
  done

let test_reg_zero () =
  Alcotest.(check bool) "r0 is zero" true (Reg.is_zero Reg.zero_reg);
  Alcotest.(check bool) "r1 is not zero" false (Reg.is_zero (Reg.of_int 1))

let test_opclass_predicates () =
  Alcotest.(check bool) "load is memory" true (Opclass.is_memory Opclass.Load);
  Alcotest.(check bool) "store is memory" true (Opclass.is_memory Opclass.Store);
  Alcotest.(check bool) "alu not memory" false (Opclass.is_memory Opclass.Alu);
  Alcotest.(check bool) "branch is control" true (Opclass.is_control Opclass.Branch);
  Alcotest.(check bool) "jump is control" true (Opclass.is_control Opclass.Jump);
  Alcotest.(check bool) "mul not control" false (Opclass.is_control Opclass.Mul)

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

let test_instr_make_alu () =
  let i =
    Instr.make ~index:5 ~pc:0x400010 ~opclass:Opclass.Alu ~dst:(Reg.of_int 3)
      ~srcs:[ Reg.of_int 1 ] ~deps:[| 2 |] ()
  in
  Alcotest.(check int) "index" 5 i.Instr.index;
  Alcotest.(check bool) "not load" false (i.Instr.opclass = Opclass.Load);
  Alcotest.(check bool) "not control" false (Opclass.is_control i.Instr.opclass)

let test_instr_make_load () =
  let i =
    Instr.make ~index:1 ~pc:0x400000 ~opclass:Opclass.Load ~dst:(Reg.of_int 2)
      ~mem:0x1000 ()
  in
  Alcotest.(check bool) "is load" true (i.Instr.opclass = Opclass.Load);
  Alcotest.(check (option int)) "mem" (Some 0x1000) i.Instr.mem

let test_instr_make_branch () =
  let i =
    Instr.make ~index:2 ~pc:0x400004 ~opclass:Opclass.Branch
      ~ctrl:{ Instr.target = 0x400100; taken = true } ()
  in
  Alcotest.(check bool) "is branch" true (i.Instr.opclass = Opclass.Branch);
  Alcotest.(check bool) "is control" true (Opclass.is_control i.Instr.opclass)

let test_instr_pp () =
  let i =
    Instr.make ~index:0 ~pc:0x400000 ~opclass:Opclass.Load ~dst:(Reg.of_int 7) ~mem:0x2000 ()
  in
  let s = Format.asprintf "%a" Instr.pp i in
  Alcotest.(check bool) "mentions load" true
    (String.length s > 0 && String.index_opt s 'l' <> None)

let suite =
  ( "isa",
    [
      Alcotest.test_case "reg roundtrip" `Quick test_reg_roundtrip;
      Alcotest.test_case "reg zero" `Quick test_reg_zero;
      Alcotest.test_case "opclass predicates" `Quick test_opclass_predicates;
      Alcotest.test_case "opclass distinct names" `Quick test_opclass_all_distinct;
      Alcotest.test_case "latency defaults" `Quick test_latency_default;
      Alcotest.test_case "latency unit" `Quick test_latency_unit;
      Alcotest.test_case "latency overrides" `Quick test_latency_make_overrides;
      Alcotest.test_case "latency average" `Quick test_latency_average;
      Alcotest.test_case "instr alu" `Quick test_instr_make_alu;
      Alcotest.test_case "instr load" `Quick test_instr_make_load;
      Alcotest.test_case "instr branch" `Quick test_instr_make_branch;
      Alcotest.test_case "instr pp" `Quick test_instr_pp;
    ] )
