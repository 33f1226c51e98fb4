(* Tests for Fom_branch: predictor behaviours on learnable and
   unlearnable branch streams. *)

module Predictor = Fom_branch.Predictor
module Rng = Fom_util.Rng

(* (correct, wrong) results of [observe] over [outcomes]. *)
let tally p outcomes =
  List.fold_left
    (fun (right, wrong) (pc, taken) ->
      if Predictor.observe p ~pc ~taken then (right + 1, wrong) else (right, wrong + 1))
    (0, 0) outcomes

let run_stream p outcomes = snd (tally p outcomes)

let test_ideal_never_wrong () =
  let p = Predictor.create Predictor.Ideal in
  let rng = Rng.create 31 in
  let outcomes = List.init 1000 (fun i -> (0x400000 + (i mod 7 * 4), Rng.bool rng)) in
  Alcotest.(check int) "no mispredictions" 0 (run_stream p outcomes)

let test_always_taken () =
  let p = Predictor.create Predictor.Always_taken in
  let outcomes = [ (0x10, true); (0x10, false); (0x10, true) ] in
  Alcotest.(check (pair int int)) "two right, one wrong" (2, 1) (tally p outcomes)

let test_bimodal_learns_bias () =
  let p = Predictor.create (Predictor.Bimodal 10) in
  let outcomes = List.init 1000 (fun _ -> (0x40, true)) in
  let wrong = run_stream p outcomes in
  Alcotest.(check bool) "learns within a few steps" true (wrong <= 2)

let test_gshare_learns_pattern () =
  (* A short periodic pattern is learnable by gShare but defeats a
     bimodal counter. *)
  let pattern = [| true; true; false |] in
  let outcomes = List.init 3000 (fun i -> (0x80, pattern.(i mod 3))) in
  let gshare = Predictor.create (Predictor.Gshare 13) in
  let bimodal = Predictor.create (Predictor.Bimodal 13) in
  let gshare_wrong = run_stream gshare outcomes in
  let bimodal_wrong = run_stream bimodal outcomes in
  Alcotest.(check bool) "gshare learns" true (gshare_wrong < 100);
  Alcotest.(check bool) "gshare beats bimodal" true (gshare_wrong < bimodal_wrong)

let test_gshare_chaotic_near_half () =
  let p = Predictor.create (Predictor.Gshare 13) in
  let rng = Rng.create 33 in
  let outcomes = List.init 20000 (fun _ -> (0xC0, Rng.bool rng)) in
  let wrong = run_stream p outcomes in
  let rate = float_of_int wrong /. 20000.0 in
  Alcotest.(check bool) "unlearnable stays near 0.5" true (rate > 0.4 && rate < 0.6)

let test_gshare_loop_misses_once_per_trip () =
  (* A loop branch with trip count beyond the history length should
     mispredict about once per loop iteration (at the exit). *)
  let trip = 100 in
  let outcomes =
    List.init 10000 (fun i -> (0x100, i mod trip < trip - 1))
  in
  let p = Predictor.create (Predictor.Gshare 13) in
  let wrong = run_stream p outcomes in
  let per_trip = float_of_int wrong /. (10000.0 /. float_of_int trip) in
  Alcotest.(check bool) "about one miss per trip" true (per_trip < 3.0)

let test_default_spec () =
  Alcotest.(check bool) "default is gshare 13" true (Predictor.default_spec = Predictor.Gshare 13)

let prop_observe_counts =
  QCheck.Test.make ~name:"stats count every observation" ~count:50
    QCheck.(list (pair (int_range 0 4096) bool))
    (fun outcomes ->
      (* Every observation yields one result, and a fresh predictor fed
         the same stream yields the same tally. *)
      let right, wrong = tally (Predictor.create (Predictor.Gshare 8)) outcomes in
      right + wrong = List.length outcomes
      && (right, wrong) = tally (Predictor.create (Predictor.Gshare 8)) outcomes)

let prop_ideal_perfect =
  QCheck.Test.make ~name:"ideal predictor is always right" ~count:50
    QCheck.(list (pair (int_range 0 4096) bool))
    (fun outcomes ->
      let p = Predictor.create Predictor.Ideal in
      List.for_all (fun (pc, taken) -> Predictor.observe p ~pc ~taken) outcomes)

let suite =
  ( "branch",
    [
      Alcotest.test_case "ideal never wrong" `Quick test_ideal_never_wrong;
      Alcotest.test_case "always taken" `Quick test_always_taken;
      Alcotest.test_case "bimodal learns bias" `Quick test_bimodal_learns_bias;
      Alcotest.test_case "gshare learns pattern" `Quick test_gshare_learns_pattern;
      Alcotest.test_case "gshare chaotic near half" `Quick test_gshare_chaotic_near_half;
      Alcotest.test_case "gshare loop misses once per trip" `Quick
        test_gshare_loop_misses_once_per_trip;
      Alcotest.test_case "default spec" `Quick test_default_spec;
      QCheck_alcotest.to_alcotest prop_observe_counts;
      QCheck_alcotest.to_alcotest prop_ideal_perfect;
    ] )
