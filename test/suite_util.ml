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

(* SplitMix64 run backwards, to hand a draw a chosen uniform: the
   output mix is a bijection (xor-shifts and odd multipliers), so a
   state exists for every output. *)
let gamma = 0x9E3779B97F4A7C15L

let inverse_odd c =
  (* Newton's iteration doubles the correct low bits: 3, 6, ..., 96. *)
  let inv = ref c in
  for _ = 1 to 5 do
    inv := Int64.(mul !inv (sub 2L (mul c !inv)))
  done;
  !inv

let unxorshift y s =
  let x = ref y in
  for _ = 1 to 3 do
    x := Int64.(logxor y (shift_right_logical !x s))
  done;
  !x

let unmix z =
  let z = unxorshift z 31 in
  let z = Int64.mul z (inverse_odd 0x94D049BB133111EBL) in
  let z = unxorshift z 27 in
  let z = Int64.mul z (inverse_odd 0xBF58476D1CE4E5B9L) in
  unxorshift z 30

(* A generator whose [nth] output carries [m] in its top 53 bits.
   Seeds are 63-bit, so the 11 low bits, which no uniform reads, pick
   a state that fits. *)
let generator_with ~nth m =
  let rec from low =
    if low >= 2048 then Alcotest.failf "no 63-bit state yields %d" m
    else
      let out = Int64.(logor (shift_left (of_int m) 11) (of_int low)) in
      let state = Int64.(sub (unmix out) (mul (of_int nth) gamma)) in
      if Int64.of_int (Int64.to_int state) = state then begin
        let seed = Int64.to_int state in
        let twin = Rng.create seed in
        for _ = 2 to nth do
          ignore (Rng.bits64 twin)
        done;
        if Rng.bits64 twin <> out then Alcotest.failf "SplitMix64 inverted wrongly at %d" m;
        Rng.create seed
      end
      else from (low + 1)
  in
  from 0

(* The log draw the table stands for, written out from the uniform's
   53 bits with [Int64.to_float]. *)
let log_draw log_q m =
  let u = Int64.to_float (Int64.of_int m) /. 9007199254740992.0 in
  let u = if u <= 0.0 then 1e-18 else u in
  int_of_float (Float.log u /. log_q)

let top53 = 1 lsl 53
let short_table p = Rng.distances ~short_p:1.0 ~p ~long_max:1
let bucket_span = 1 lsl 45

(* The short distance that [Rng.distance] draws from uniform [m]
   under [d = short_table p], always short: the first output goes to
   the short/long choice. It spends two outputs, or
   only the choice's when [p = 1]. *)
let table_draw p d m =
  let r = generator_with ~nth:2 m in
  let draw = Rng.distance r d - 1 in
  let twin = generator_with ~nth:2 m in
  for _ = 1 to if p = 1.0 then 1 else 2 do
    ignore (Rng.bits64 twin)
  done;
  if Rng.bits64 r <> Rng.bits64 twin then
    Alcotest.failf "p=%h: a short draw spent other outputs" p;
  draw

(* Checks [table_draw] against [log_draw] at [m +/- 0..4] for each
   [m] and returns how many points lay in buckets whose two ends draw
   the same count (answered by the table) and in the rest (which
   must take the log). *)
let check_table_near p ms =
  let log_q = Float.log (1.0 -. p) in
  let d = short_table p in
  let same_ends = ref 0 and split_ends = ref 0 in
  List.iter
    (fun m ->
      for delta = -4 to 4 do
        let m = m + delta in
        if m >= 0 && m < top53 then begin
          let want = log_draw log_q m in
          let got = table_draw p d m in
          if got <> want then
            Alcotest.failf "p=%h u=%d*2^-53: table draws %d, the log %d" p m got want;
          let b = m / bucket_span in
          if b > 0 && log_draw log_q (b * bucket_span) = log_draw log_q (((b + 1) * bucket_span) - 1)
          then incr same_ends
          else incr split_ends
        end
      done)
    ms;
  (!same_ends, !split_ends)

(* Both ends of every bucket, and the uniforms nearest every [q^j]
   boundary the log draw crosses above [u = 2^-53]. *)
let check_table p =
  let ends =
    List.concat (List.init 256 (fun b -> [ b * bucket_span; ((b + 1) * bucket_span) - 1 ]))
  in
  let q = 1.0 -. p in
  let rec boundaries j acc =
    let m = Float.pow q (float_of_int j) *. 9007199254740992.0 in
    if j > 2000 || not (m >= 1.0) then acc else boundaries (j + 1) (int_of_float m :: acc)
  in
  check_table_near p (ends @ List.sort_uniq compare (boundaries 1 []))

(* Every preset's short distances, serial-chain's [p = 1] among them. *)
let test_rng_distance_table () =
  let short_means =
    List.sort_uniq compare
      (List.map
         (fun c -> c.Fom_trace.Config.deps.short_mean)
         (Fom_workloads.Spec2000.all @ Fom_workloads.Micro.all))
  in
  List.iter
    (fun mean ->
      let same, split = check_table (1.0 /. mean) in
      if mean > 1.0 then begin
        Alcotest.(check bool) (Printf.sprintf "mean %g: table answers" mean) true (same > 0);
        Alcotest.(check bool) (Printf.sprintf "mean %g: log answers" mean) true (split > 0)
      end)
    short_means;
  (* The choice is short exactly below [short_p]: with [p = 1] a short
     draw is 1, a long one almost surely more. *)
  List.iter
    (fun short_p ->
      let d = Rng.distances ~short_p ~p:1.0 ~long_max:(1 lsl 40) in
      let at = int_of_float (short_p *. 9007199254740992.0) in
      for m = Int.max 0 (at - 3) to Int.min (top53 - 1) (at + 3) do
        let short = Int64.to_float (Int64.of_int m) /. 9007199254740992.0 < short_p in
        if short <> (Rng.distance (generator_with ~nth:1 m) d = 1) then
          Alcotest.failf "short_p=%h u=%d*2^-53: the choice disagrees with bernoulli" short_p m
      done)
    (List.sort_uniq compare
       (0.1 +. 0x1p-50 :: List.map
          (fun c -> c.Fom_trace.Config.deps.short_p)
          (Fom_workloads.Spec2000.all @ Fom_workloads.Micro.all)))

let gen_p =
  (* Success probabilities in (0, 1]: uniform, near 0 and near 1. *)
  QCheck.(
    map
      (fun (kind, x) ->
        match kind mod 3 with
        | 0 -> Float.max 1e-12 x
        | 1 -> Float.max 1e-300 (x *. 1e-9)
        | _ -> 1.0 -. (x *. 1e-9))
      (pair small_nat (float_bound_inclusive 1.0)))

let prop_distance_table_ends =
  QCheck.Test.make ~name:"table geometric equals the log at bucket ends and boundaries"
    ~count:10 gen_p (fun p ->
      ignore (check_table p);
      true)

let prop_distance_table_random =
  QCheck.Test.make ~name:"table geometric equals the log at random uniforms" ~count:200
    QCheck.(pair gen_p (list_of_size (Gen.return 50) (int_bound (top53 - 1))))
    (fun (p, ms) ->
      let log_q = Float.log (1.0 -. p) and d = short_table p in
      List.for_all (fun m -> table_draw p d m = log_draw log_q m) ms)

let prop_distance_matches_three_draws =
  (* One [Rng.distance] spends what [bernoulli short_p], then
     [geometric p] or [int long_max] spent, output for output: each
     written out here from [bits64]. *)
  QCheck.Test.make ~name:"distance equals bernoulli, then geometric or int" ~count:200
    QCheck.(quad small_nat (float_bound_inclusive 1.0) gen_p (int_range 1 1000))
    (fun (seed, short_p, p, long_max) ->
      let short_p = match seed mod 5 with 0 -> 0.0 | 1 -> 1.0 | _ -> short_p in
      let d = Rng.distances ~short_p ~p ~long_max in
      let log_q = Float.log (1.0 -. p) in
      let r = Rng.create seed and twin = Rng.create seed in
      let bits53 x = Int64.to_int (Int64.shift_right_logical x 11) in
      let uniform x = Int64.to_float (Int64.shift_right_logical x 11) /. 9007199254740992.0 in
      List.for_all
        (fun _ ->
          let want =
            if uniform (Rng.bits64 twin) < short_p then
              if p = 1.0 then 1 else 1 + log_draw log_q (bits53 (Rng.bits64 twin))
            else 1 + (Int64.to_int (Int64.shift_right_logical (Rng.bits64 twin) 2) mod long_max)
          in
          Rng.distance r d = want)
        (List.init 200 Fun.id))

let prop_uniform_draws =
  (* [float] and [bernoulli] convert without [Int64.to_float]; the
     doubles must be the ones it gives. *)
  QCheck.Test.make ~name:"float and bernoulli match Int64.to_float" ~count:200
    QCheck.(triple small_nat (float_range (-0.5) 1.5) (float_range 0.0 1e6))
    (fun (seed, p, x) ->
      let r = Rng.create seed and twin = Rng.create seed in
      let u () =
        Int64.to_float (Int64.shift_right_logical (Rng.bits64 twin) 11) /. 9007199254740992.0
      in
      List.for_all
        (fun _ -> Rng.bernoulli r p = (u () < p) && Rng.float r x = u () *. x)
        (List.init 100 Fun.id))

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

(* The least-squares line is private to [Fit]; it is reached through
   [power_law] on points whose log2-log2 image is the exact line
   [log2 y = 2 log2 x + 1]. *)
let test_fit_exact_line () =
  let p =
    Fit.power_law
      (Array.init 10 (fun i ->
           let x = Float.pow 2.0 (float_of_int i) in
           (x, 2.0 *. x *. x)))
  in
  check_close 1e-9 "slope" 2.0 p.Fit.beta;
  check_close 1e-9 "intercept" 1.0 (Float.log2 p.Fit.alpha);
  check_close 1e-9 "r2" 1.0 p.Fit.r2

let test_fit_power_law_recovers () =
  let windows = [| 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0 |] in
  let alpha = 1.3 and beta = 0.5 in
  let p = Fit.power_law (Array.map (fun w -> (w, alpha *. Float.pow w beta)) windows) in
  check_close 1e-6 "alpha" alpha p.Fit.alpha;
  check_close 1e-6 "beta" beta p.Fit.beta;
  check_close 1e-9 "r2" 1.0 p.Fit.r2;
  (* A flat curve: seven equal log2 ys whose computed mean is not
     exactly their value (serial-chain's IW curve). *)
  let y = Float.pow 2.0 0x1.f65e2414ed9acp-4 in
  let p = Fit.power_law (Array.map (fun w -> (w, y)) windows) in
  Alcotest.(check (float 0.0)) "flat r2" 1.0 p.Fit.r2

let test_fit_eval () =
  let p = { Fit.alpha = 2.0; beta = 0.5; r2 = 1.0 } in
  check_close 1e-9 "eval" 8.0 (Fit.eval_power_law p 16.0)

let test_distribution_basic () =
  let d = Distribution.of_list [ (1, 3); (2, 1) ] in
  Alcotest.(check int) "total" 4 (Distribution.total d);
  check_float "mean" 1.25 (Distribution.mean d);
  Alcotest.(check int) "count" 3 (Distribution.count d 1);
  Alcotest.(check int) "count of an unseen outcome" 0 (Distribution.count d 7);
  Alcotest.(check (list (pair int int))) "to_list" [ (1, 3); (2, 1) ] (Distribution.to_list d)

let test_distribution_empty () =
  let d = Distribution.create () in
  check_float "empty mean" 0.0 (Distribution.mean d);
  Alcotest.(check (list (pair int int))) "empty to_list" [] (Distribution.to_list d)

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

(* Arbitrary strings and damaged copies of a real fom-bench/1
   document: [Json.of_string] either parses the input or rejects it
   with FOM-U004 diagnostics, never with another exception. *)
let bench_document =
  let module J = Fom_util.Json in
  let exhibit name seconds speedup =
    J.Obj
      [
        ("name", J.String name);
        ("seconds", J.Float seconds);
        ("seconds_jobs1", J.Float (seconds *. speedup));
        ("speedup_vs_jobs1", J.Float speedup);
      ]
  in
  J.to_string
    (J.Obj
       [
         ("schema", J.String "fom-bench/1");
         ("git_rev", J.String "a\"quoted\\rev\n\t\001");
         ("scale", J.Float 0.2);
         ("jobs", J.Int 2);
         ("recommended_domains", J.Int (-1));
         ( "exhibits",
           J.List [ exhibit "fig2" 1.25e-3 1.9; exhibit "ext-phases" 0.333 0.97 ] );
         ("total_seconds", J.Float 12.5);
         ( "metrics",
           J.Obj
             [
               ("counters", J.List [ J.List [ J.String "sim.cycles"; J.Int 123456789 ] ]);
               ("flags", J.List [ J.Bool true; J.Bool false; J.Null; J.List [] ]);
               ("empty", J.Obj []);
             ] );
       ])

let json_inputs =
  let open QCheck.Gen in
  let doc = bench_document in
  let len = String.length doc in
  (* Mostly bytes the grammar uses, so edits land on plausible tokens. *)
  let json_byte = oneofl (List.of_seq (String.to_seq "{}[]\",:\\/0123456789.eE+-tfnlrsu ")) in
  let byte = frequency [ (4, json_byte); (1, char) ] in
  oneof
    [
      string_size ~gen:byte (int_range 0 64);
      map (fun at -> String.sub doc 0 at) (int_bound len);
      map2
        (fun at c -> String.mapi (fun i x -> if i = at then c else x) doc)
        (int_bound (len - 1)) byte;
    ]

let prop_json_of_string_rejects_with_u004 =
  QCheck.Test.make ~name:"json of_string parses or reports FOM-U004" ~count:1000
    (QCheck.make json_inputs ~print:(Printf.sprintf "%S"))
    (fun text ->
      match Fom_util.Json.of_string text with
      | _ -> true
      | exception Fom_check.Checker.Invalid ds ->
          ds <> []
          && List.for_all
               (fun d -> String.equal d.Fom_check.Diagnostic.code "FOM-U004")
               ds)

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

(* The running integer sum gives the same float as summing each
   outcome's exact product in floats, as the mean was once computed. *)
let prop_distribution_mean_exact =
  QCheck.Test.make ~name:"distribution mean equals the float sum of products" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (pair (int_range 0 1000) (int_range 1 100_000)))
    (fun pairs ->
      let d = Distribution.of_list pairs in
      let sum =
        List.fold_left
          (fun acc (k, c) -> acc +. (float_of_int c *. float_of_int k))
          0.0 (Distribution.to_list d)
      in
      Distribution.mean d = sum /. float_of_int (Distribution.total d))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_rng_int_bounds;
      prop_distance_table_ends;
      prop_distance_table_random;
      prop_distance_matches_three_draws;
      prop_uniform_draws;
      prop_fit_power_law_roundtrip;
      prop_distribution_probabilities_sum;
      prop_distribution_mean_exact;
    ]

let suite =
  ( "util",
    [
      Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
      Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
      Alcotest.test_case "rng golden outputs" `Quick test_rng_golden;
      Alcotest.test_case "rng int range" `Quick test_rng_int_range;
      Alcotest.test_case "rng float range" `Quick test_rng_float_range;
      Alcotest.test_case "rng bernoulli mean" `Quick test_rng_bernoulli_mean;
      Alcotest.test_case "rng geometric mean" `Quick test_rng_geometric_mean;
      Alcotest.test_case "rng categorical" `Quick test_rng_categorical;
      Alcotest.test_case "rng distance table equals the log" `Quick test_rng_distance_table;
      Alcotest.test_case "stats basics" `Quick test_stats_basics;
      Alcotest.test_case "stats empty" `Quick test_stats_empty;
      Alcotest.test_case "stats streaming accumulator" `Quick test_stats_acc_matches_batch;
      Alcotest.test_case "fit exact line" `Quick test_fit_exact_line;
      Alcotest.test_case "fit power law" `Quick test_fit_power_law_recovers;
      Alcotest.test_case "fit eval" `Quick test_fit_eval;
      Alcotest.test_case "distribution basics" `Quick test_distribution_basic;
      Alcotest.test_case "distribution empty" `Quick test_distribution_empty;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table float cell" `Quick test_table_float_cell;
      Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
      Alcotest.test_case "csv render" `Quick test_csv_render;
      Alcotest.test_case "csv file roundtrip" `Quick test_csv_roundtrip_file;
      Alcotest.test_case "json parse roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "json unreadable file" `Quick test_json_unreadable_file;
      QCheck_alcotest.to_alcotest prop_csv_field_count_preserved;
      QCheck_alcotest.to_alcotest prop_json_of_string_rejects_with_u004;
    ]
    @ qcheck_cases )
