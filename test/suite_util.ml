(* Unit and property tests for Fom_util: RNG, statistics, fitting,
   distributions, tables. *)

module Rng = Fom_util.Rng
module Stats = Fom_util.Stats
module Fit = Fom_util.Fit
module Distribution = Fom_util.Distribution
module Table = Fom_util.Table

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let x = Rng.bits64 child in
  let y = Rng.bits64 parent in
  Alcotest.(check bool) "split streams differ" true (x <> y)

let test_rng_copy () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy resumes identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_golden () =
  (* SplitMix64 reference outputs: every trace and workload in the
     repository descends from these streams. *)
  List.iter
    (fun (seed, expected) ->
      let r = Rng.create seed in
      List.iteri
        (fun k want ->
          Alcotest.(check int64) (Printf.sprintf "seed %d draw %d" seed k) want (Rng.bits64 r))
        expected)
    [
      ( 0,
        [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL; 0xF88BB8A8724C81ECL;
          0x1B39896A51A8749BL; 0x53CB9F0C747EA2EAL; 0x2C829ABE1F4532E1L; 0xC584133AC916AB3CL ] );
      ( 1,
        [ 0x910A2DEC89025CC1L; 0xBEEB8DA1658EEC67L; 0xF893A2EEFB32555EL; 0x71C18690EE42C90BL;
          0x71BB54D8D101B5B9L; 0xC34D0BFF90150280L; 0xE099EC6CD7363CA5L; 0x85E7BB0F12278575L ] );
      ( 0x7A12,
        [ 0x84425AF9D9027AFFL; 0x2DB682CA4C7752D9L; 0x7E6D9C0F5CD8441DL; 0xFA21297D59D41A68L;
          0xC5DD5E3E5BD76D9BL; 0x18CDFB35E472CDFEL; 0x1211BB6F916D30E9L; 0xD7934501DFA88061L ] );
    ]

let test_rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_float_range () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 2.5)
  done

let test_rng_bernoulli_mean () =
  let r = Rng.create 5 in
  let hits = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  check_close 0.02 "bernoulli mean" 0.3 (float_of_int !hits /. float_of_int n)

let test_rng_geometric_mean () =
  let r = Rng.create 6 in
  let acc = Stats.Acc.create () in
  for _ = 1 to 20000 do
    Stats.Acc.add acc (float_of_int (Rng.geometric r 0.25))
  done;
  (* Mean of geometric (failures before success) is (1-p)/p = 3. *)
  check_close 0.15 "geometric mean" 3.0 (Stats.Acc.mean acc)

let test_rng_categorical () =
  let r = Rng.create 8 in
  let counts = Array.make 3 0 in
  let n = 30000 in
  for _ = 1 to n do
    let i = Rng.categorical r [| 1.0; 2.0; 1.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_close 0.02 "weight 2 bin" 0.5 (float_of_int counts.(1) /. float_of_int n)

let test_stats_basics () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean a);
  check_float "max" 4.0 (Stats.max a)

let test_stats_empty () = check_float "empty mean" 0.0 (Stats.mean [||])

let test_stats_acc_matches_batch () =
  let a = Array.init 100 (fun i -> float_of_int (i * i) /. 7.0) in
  let acc = Stats.Acc.create () in
  Array.iter (Stats.Acc.add acc) a;
  check_close 1e-6 "acc mean" (Stats.mean a) (Stats.Acc.mean acc)

let test_fit_exact_line () =
  let points = Array.init 10 (fun i -> (float_of_int i, (2.0 *. float_of_int i) +. 1.0)) in
  let l = Fit.line points in
  check_close 1e-9 "slope" 2.0 l.Fit.slope;
  check_close 1e-9 "intercept" 1.0 l.Fit.intercept;
  check_close 1e-9 "r2" 1.0 l.Fit.r2

let test_fit_power_law_recovers () =
  let alpha = 1.3 and beta = 0.5 in
  let points =
    Array.map (fun w -> (w, alpha *. Float.pow w beta)) [| 4.0; 8.0; 16.0; 32.0; 64.0 |]
  in
  let p = Fit.power_law points in
  check_close 1e-6 "alpha" alpha p.Fit.alpha;
  check_close 1e-6 "beta" beta p.Fit.beta

let test_fit_eval () =
  let p = { Fit.alpha = 2.0; beta = 0.5; r2 = 1.0 } in
  check_close 1e-9 "eval" 8.0 (Fit.eval_power_law p 16.0)

let test_distribution_basic () =
  let d = Distribution.of_list [ (1, 3); (2, 1) ] in
  Alcotest.(check int) "total" 4 (Distribution.total d);
  check_float "mean" 1.25 (Distribution.mean d);
  Alcotest.(check (list int)) "support" [ 1; 2 ] (Distribution.support d)

let test_distribution_expect () =
  (* The eq. 8 overlap factor: sum f(i)/i. *)
  let d = Distribution.of_list [ (1, 1); (2, 1) ] in
  check_float "overlap factor" 0.75 (Distribution.expect d (fun i -> 1.0 /. float_of_int i))

let test_distribution_empty () =
  let d = Distribution.create () in
  check_float "empty expect" 0.0 (Distribution.expect d float_of_int)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ] in
  Alcotest.(check bool) "contains header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count" 5 (List.length lines)

let test_table_float_cell () =
  Alcotest.(check string) "format" "1.50" (Table.float_cell ~decimals:2 1.5)

(* The file [Csv.write_file] writes for [header] and [rows]. *)
let csv_document ~header rows =
  let path = Filename.temp_file "fom" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fom_util.Csv.write_file ~path ~header rows;
      In_channel.with_open_bin path In_channel.input_all)

let test_csv_escaping () =
  let field f = csv_document ~header:[ f ] [] in
  Alcotest.(check string) "plain" "abc\n" (field "abc");
  Alcotest.(check string) "comma" "\"a,b\"\n" (field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"\n" (field "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"\n" (field "a\nb")

let test_csv_render () =
  let s = csv_document ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "a,b" ] ] in
  Alcotest.(check string) "full document" "x,y\n1,2\n3,\"a,b\"\n" s

let test_csv_roundtrip_file () =
  Alcotest.(check string) "written" "a\n1\n2\n" (csv_document ~header:[ "a" ] [ [ "1" ]; [ "2" ] ])

let test_json_roundtrip () =
  let module J = Fom_util.Json in
  let v =
    J.Obj
      [
        ("schema", J.String "fom-bench/1");
        ("scale", J.Float 0.2);
        ("jobs", J.Int 4);
        ("flag", J.Bool true);
        ("nothing", J.Null);
        ( "exhibits",
          J.List
            [
              J.Obj [ ("name", J.String "fig2"); ("seconds", J.Float 13.9153580666) ];
              J.Obj [ ("name", J.String "with \"quotes\"\n"); ("seconds", J.Int 3) ];
            ] );
        ("empty_list", J.List []);
        ("empty_obj", J.Obj []);
      ]
  in
  Alcotest.(check bool) "pretty round-trips" true (J.of_string (J.to_string v) = v);
  Alcotest.(check bool)
    "compact round-trips" true
    (J.of_string (J.to_string ~indent:0 v) = v);
  (* The accessors the bench baseline gate is built from. *)
  (match J.member "exhibits" v with
  | Some (J.List (first :: _)) ->
      Alcotest.(check (option string))
        "member name" (Some "fig2")
        (match J.member "name" first with Some (J.String s) -> Some s | _ -> None);
      Alcotest.(check (option (float 1e-9)))
        "number" (Some 13.9153580666)
        (Option.bind (J.member "seconds" first) J.number)
  | _ -> Alcotest.fail "exhibits missing");
  Alcotest.(check (option (float 0.0))) "int as number" (Some 4.0)
    (Option.bind (J.member "jobs" v) J.number)

let test_json_unreadable_file () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "fom-no-such-file.json" in
  match Fom_util.Json.of_file ~path with
  | _ -> Alcotest.fail "read a missing file"
  | exception Fom_check.Checker.Invalid [ d ] ->
      Alcotest.(check string) "code" "FOM-U005" d.Fom_check.Diagnostic.code;
      Alcotest.(check string) "path" path d.Fom_check.Diagnostic.path

let prop_csv_field_count_preserved =
  QCheck.Test.make ~name:"csv rows keep their field count" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 5) (string_gen_of_size (Gen.int_range 0 10) Gen.printable))
    (fun fields ->
      let line = csv_document ~header:fields [] in
      (* Quoted fields may contain commas; strip them by parsing
         naively only when no field needed quoting. *)
      if List.for_all (fun f -> not (String.contains f ',') && not (String.contains f '"')
                                && not (String.contains f '\n')) fields
      then
        List.length (String.split_on_char ',' (String.trim line)) = List.length fields
      else true)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let r = Rng.create seed in
      let x = Rng.int r n in
      x >= 0 && x < n)

let prop_fit_power_law_roundtrip =
  QCheck.Test.make ~name:"power-law fit recovers exact parameters" ~count:100
    QCheck.(pair (float_range 0.5 4.0) (float_range 0.1 0.9))
    (fun (alpha, beta) ->
      let points =
        Array.map (fun w -> (w, alpha *. Float.pow w beta)) [| 2.0; 4.0; 8.0; 16.0 |]
      in
      let p = Fit.power_law points in
      Float.abs (p.Fit.alpha -. alpha) < 1e-6 && Float.abs (p.Fit.beta -. beta) < 1e-6)

let prop_distribution_probabilities_sum =
  QCheck.Test.make ~name:"distribution probabilities sum to 1" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (pair (int_range 0 10) (int_range 1 5)))
    (fun pairs ->
      let d = Distribution.of_list pairs in
      let n = float_of_int (Distribution.total d) in
      let total =
        List.fold_left (fun acc (_, c) -> acc +. (float_of_int c /. n)) 0.0
          (Distribution.to_list d)
      in
      Float.abs (total -. 1.0) < 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_rng_int_bounds;
      prop_fit_power_law_roundtrip;
      prop_distribution_probabilities_sum;
    ]

let suite =
  ( "util",
    [
      Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
      Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
      Alcotest.test_case "rng copy" `Quick test_rng_copy;
      Alcotest.test_case "rng golden outputs" `Quick test_rng_golden;
      Alcotest.test_case "rng int range" `Quick test_rng_int_range;
      Alcotest.test_case "rng float range" `Quick test_rng_float_range;
      Alcotest.test_case "rng bernoulli mean" `Quick test_rng_bernoulli_mean;
      Alcotest.test_case "rng geometric mean" `Quick test_rng_geometric_mean;
      Alcotest.test_case "rng categorical" `Quick test_rng_categorical;
      Alcotest.test_case "stats basics" `Quick test_stats_basics;
      Alcotest.test_case "stats empty" `Quick test_stats_empty;
      Alcotest.test_case "stats streaming accumulator" `Quick test_stats_acc_matches_batch;
      Alcotest.test_case "fit exact line" `Quick test_fit_exact_line;
      Alcotest.test_case "fit power law" `Quick test_fit_power_law_recovers;
      Alcotest.test_case "fit eval" `Quick test_fit_eval;
      Alcotest.test_case "distribution basics" `Quick test_distribution_basic;
      Alcotest.test_case "distribution expectation" `Quick test_distribution_expect;
      Alcotest.test_case "distribution empty" `Quick test_distribution_empty;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table float cell" `Quick test_table_float_cell;
      Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
      Alcotest.test_case "csv render" `Quick test_csv_render;
      Alcotest.test_case "csv file roundtrip" `Quick test_csv_roundtrip_file;
      Alcotest.test_case "json parse roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "json unreadable file" `Quick test_json_unreadable_file;
      QCheck_alcotest.to_alcotest prop_csv_field_count_preserved;
    ]
    @ qcheck_cases )
