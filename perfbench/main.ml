(* perfbench: end-to-end and per-layer benchmark of the fom libraries.

   Usage: main.exe --workload fig2-sim|design-sweep|ext-stream --seed N
            --seconds S --trace 0|1

   Sets the workload up several times (setup_s is the median), runs one
   warm-up pass, then repeats passes until S seconds have gone. With
   --trace 0 it prints the end-to-end metrics; with --trace 1 it
   alternates untraced and traced passes and prints the per-layer
   metrics (medians over the traced passes), the span rollup and the
   tracing overhead. The last stdout line is one JSON object.

   On a shared host other tenants only ever add time, for anything from
   milliseconds to minutes, so wall_s and cpu_s are fastest times, which
   vary far less from run to run than medians do. On one domain every
   library call of a pass is a unit with a key (see Probe), and they
   are the sum over units of each unit's fastest time in any untraced
   pass; a unit lasts some 10-100 ms, so it finds a quiet moment even
   when no whole pass does. On two domains calls overlap, and they are
   the fastest pass's. *)

open Perfbench
module A = Adapter
module J = Adapter.Json

type pass = {
  traced : bool;
  wall_ns : int;
  cpu_s : float;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  probe : Probe.t;
  outcome : Workloads.outcome;
  rollup : Rollup.t option;
  counters : (string * int) list;
}

let run_pass (w : Workloads.t) setup digests ~traced =
  let probe = Probe.create digests in
  if traced then A.start_tracing ();
  let gc0 = Gc.quick_stat () and cpu0 = Probe.cpu () and t0 = A.now_ns () in
  let outcome = w.Workloads.pass setup probe in
  let wall_ns = A.now_ns () - t0 and cpu_s = Probe.cpu () -. cpu0 and gc1 = Gc.quick_stat () in
  let rollup, counters =
    if traced then begin
      A.stop_tracing ();
      ( Some (Rollup.of_events (A.span_events ())),
        List.map (fun n -> (n, A.counter n))
          [ "pool.tasks"; "pool.steals"; "memo.joins"; "iw.instructions" ] )
    end
    else (None, [])
  in
  {
    traced;
    wall_ns;
    cpu_s;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    probe;
    outcome;
    rollup;
    counters;
  }

(* Sum over units of each unit's fastest time in [passes]; [pick]
   selects wall or CPU seconds. *)
let fastest_units passes pick =
  let best = Hashtbl.create 64 in
  List.iter
    (fun p ->
      Hashtbl.iter
        (fun key v ->
          let v = pick v in
          match Hashtbl.find_opt best key with
          | Some b when b <= v -> ()
          | _ -> Hashtbl.replace best key v)
        p.probe.Probe.units)
    passes;
  Hashtbl.fold (fun _ v acc -> acc +. v) best 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let f = float_of_int

(* Per-layer metrics of one traced pass as (name, unit, value). Layers a
   workload does not run read 0. The end-to-end metric each should move:
   - trace.pack: wall_s on fig2-sim and design-sweep, heap_peak_mb;
   - uarch.sim.<cfg>: wall_s, cpu_s and alloc_words_per_instr, mostly on
     fig2-sim (cpi is simulated and must never move);
   - uarch.sim_stream.<ext>: wall_s on ext-stream only;
   - analysis.*: wall_s on design-sweep (ext-stream runs characterize
     unpacked); nothing on fig2-sim;
   - model.evaluate: no visible end-to-end move; it shows a regression;
   - exec.*: wall_s and cpu_s on design-sweep, the only 2-domain one;
   - gc.*: wall_s everywhere. *)
let layer_metrics ~domains p =
  let cap = f (domains * p.wall_ns) in
  let l name = Probe.find p.probe name in
  let get name g = match l name with Some x -> g x | None -> 0.0 in
  let per_instr name v = get name (fun x -> ratio (v x) (f x.Probe.instrs)) in
  let ns x = f x.Probe.ns and words x = x.Probe.words in
  let rollup = Option.get p.rollup in
  let counter n = f (Option.value (List.assoc_opt n p.counters) ~default:0) in
  let char_ns = get "analysis.characterize" ns in
  let char_instrs = get "analysis.characterize" (fun x -> f x.Probe.instrs) in
  let iw_ns = f (Rollup.inclusive_ns rollup "iw.point") in
  let profile_ns = f (Rollup.self_ns rollup "bench.analysis.characterize") in
  let waits = p.probe.Probe.waits_ns in
  let sim cfg =
    let name = "uarch.sim." ^ cfg in
    [
      (name ^ ".ns_per_instr", "ns", per_instr name ns);
      (name ^ ".words_per_instr", "words", per_instr name words);
      (name ^ ".ns_per_cycle", "ns", get name (fun x -> ratio (ns x) (f x.Probe.cycles)));
      (name ^ ".cpi", "cycles/instr", get name (fun x -> ratio (f x.Probe.cycles) (f x.Probe.instrs)));
      (name ^ ".events_per_instr", "events/instr", per_instr name (fun x -> f x.Probe.events));
    ]
  in
  let stream ext =
    let name = "uarch.sim_stream." ^ ext in
    [
      (name ^ ".ns_per_instr", "ns", per_instr name ns);
      (name ^ ".words_per_instr", "words", per_instr name words);
    ]
  in
  [
    ("trace.pack.ns_per_instr", "ns", per_instr "trace.pack" ns);
    ("trace.pack.words_per_instr", "words", per_instr "trace.pack" words);
    ("trace.pack.share", "ratio", ratio (get "trace.pack" ns) cap);
  ]
  @ List.concat_map sim [ "ideal"; "bp"; "ic"; "dc"; "real" ]
  @ List.concat_map stream [ "tlb"; "fu"; "fetchbuf"; "cluster"; "phases" ]
  @ [
      ("analysis.characterize.ns_per_instr", "ns", ratio char_ns char_instrs);
      ("analysis.characterize.words_per_instr", "words", per_instr "analysis.characterize" words);
      ("analysis.iw.ns_per_instr", "ns", ratio iw_ns (counter "iw.instructions"));
      ("analysis.iw.share", "ratio", ratio iw_ns cap);
      ("analysis.profile.ns_per_instr", "ns", ratio profile_ns char_instrs);
      ("analysis.profile.share", "ratio", ratio profile_ns cap);
      ( "model.evaluate.ns_per_call",
        "ns",
        get "model.evaluate" (fun x -> ratio (ns x) (f x.Probe.calls)) );
      ( "model.evaluate.words_per_call",
        "words",
        get "model.evaluate" (fun x -> ratio (words x) (f x.Probe.calls)) );
      ("model.evaluate.share", "ratio", ratio (get "model.evaluate" ns) cap);
      ("exec.pool.busy_frac", "ratio", ratio (f p.probe.Probe.busy_ns) cap);
      ("exec.pool.wait_ms_p50", "ms", Summary.percentile waits 50.0 /. 1e6);
      ("exec.pool.wait_ms_p99", "ms", Summary.percentile waits 99.0 /. 1e6);
      ("exec.pool.tasks", "count", counter "pool.tasks");
      ("exec.pool.steals", "count", counter "pool.steals");
      ("exec.memo.joins", "count", counter "memo.joins");
      ("gc.minor_collections", "count", f p.minor_gcs);
      ("gc.major_collections", "count", f p.major_gcs);
      ( "rollup.unattributed_share",
        "ratio",
        ratio (f (Rollup.unattributed_ns rollup ~domains ~wall_ns:p.wall_ns)) cap );
    ]

let metric name value unit = (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit) ])

let print_rollup ~domains ~wall_ns (r : Rollup.t) =
  Printf.printf "%-32s %8s %12s %12s\n" "span" "count" "incl ms" "self ms";
  List.iter
    (fun (row : Rollup.row) ->
      Printf.printf "%-32s %8d %12.2f %12.2f\n" row.Rollup.name row.Rollup.count
        (f row.Rollup.inclusive_ns /. 1e6) (f row.Rollup.self_ns /. 1e6))
    r.Rollup.rows;
  Printf.printf "self total %.2f ms + unattributed %.2f ms = %d domain(s) x wall %.2f ms\n"
    (f (Rollup.total_self_ns r) /. 1e6)
    (f (Rollup.unattributed_ns r ~domains ~wall_ns) /. 1e6)
    domains (f wall_ns /. 1e6)

let usage () =
  prerr_endline
    "usage: main.exe --workload fig2-sim|design-sweep|ext-stream --seed N --seconds S --trace 0|1\n\
    \       main.exe --workload NAME --write-digests";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let write_digests = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N order in which presets run");
      ("--seconds", Arg.Set_int seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ( "--write-digests",
        Arg.Set write_digests,
        " run one pass and store its output digests in perfbench/digests/NAME.txt" );
    ]
    (fun _ -> usage ())
    "perfbench";
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None -> usage ()
  in
  let setup_once () =
    Gc.full_major ();
    let t0 = A.now_ns () in
    let s = Workloads.setup ~seed:!seed ~jobs:w.Workloads.jobs in
    (s, f (A.now_ns () - t0) /. 1e9)
  in
  if !write_digests then begin
    let setup, _ = setup_once () in
    let digests = Digests.recording () in
    let p = run_pass w setup digests ~traced:false in
    A.Pool.shutdown setup.Workloads.pool;
    let path = Digests.file w.Workloads.name in
    let n = Digests.write digests path in
    Printf.printf "%d digests written to %s (%d calls failed)\n" n path (Probe.failed p.probe);
    exit (if Probe.failed p.probe = 0 then 0 else 1)
  end;
  let digests = Digests.load (Digests.file w.Workloads.name) in
  let traced_run = !trace = 1 in
  (* Set-up: programs, phase schedule and pool start-up. The first one
     is not timed and runs the passes. Another is timed before each
     pass, so that setup_s, their median, samples the host over the
     whole run as the passes do. *)
  let setup, _ = setup_once () in
  let setup_times = ref [] in
  let domains = A.Pool.domains setup.Workloads.pool in
  let warm = run_pass w setup digests ~traced:false in
  (* Heap peak after one pass of fixed work, before the timed loop, so
     it does not depend on how many passes fit in the run. *)
  let heap_mb =
    f ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let deadline = A.now_ns () + (!seconds * 1_000_000_000) in
  let rec loop acc i =
    let s, t = setup_once () in
    A.Pool.shutdown s.Workloads.pool;
    setup_times := t :: !setup_times;
    let p = run_pass w setup digests ~traced:(traced_run && i mod 2 = 1) in
    let acc = p :: acc in
    let count t = List.length (List.filter (fun p -> p.traced = t) acc) in
    let enough = count false >= 2 && ((not traced_run) || count true >= 2) in
    if enough && A.now_ns () >= deadline then List.rev acc else loop acc (i + 1)
  in
  let passes = loop [] 0 in
  A.Pool.shutdown setup.Workloads.pool;
  let setup_s = Summary.median !setup_times in
  let all = warm :: passes in
  let attempted = List.fold_left (fun acc p -> acc + Probe.attempted p.probe) 0 all in
  let failed = List.fold_left (fun acc p -> acc + Probe.failed p.probe) 0 all in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let wall p = f p.wall_ns /. 1e9 in
  let ok_ratio = ratio (f (attempted - failed)) (f attempted) in
  Printf.printf "perfbench %s seed %d: %d passes (+1 warm-up), %d domain(s)\n" w.Workloads.name
    !seed (List.length passes) domains;
  Printf.printf "fail_ratio %.6f (%d of %d layer calls failed)\n" (1.0 -. ok_ratio) failed
    attempted;
  let walls = List.map wall untraced in
  let q1, q2, q3 = Summary.quartiles walls in
  Printf.printf
    "untraced pass wall: min %.4f q1 %.4f median %.4f q3 %.4f s, spread %.4f over %d passes\n"
    (Summary.min walls) q1 q2 q3 (Summary.spread walls) (List.length walls);
  (* The workload's two accuracy figures, under the issue's names here
     and as err1_pct/err2_pct in the JSON. *)
  let err1_name, err1, err2_name, err2 =
    let o = warm.outcome in
    match w.Workloads.name with
    | "fig2-sim" ->
        ( "fig2_indep_err_pct", Summary.mean o.Workloads.errors,
          "fig2_comp_err_pct", Summary.mean o.Workloads.fig2_comp )
    | _ ->
        ( "model_cpi_err_mean_pct", Summary.mean o.Workloads.errors,
          "model_cpi_err_max_pct", Summary.max o.Workloads.errors )
  in
  Printf.printf "%s %.2f %%\n%s %.2f %%\n" err1_name err1 err2_name err2;
  let metrics =
    if not traced_run then
      [
        metric "setup_s" setup_s "s";
        metric "wall_s" (if domains = 1 then fastest_units untraced fst else Summary.min walls) "s";
        metric "cpu_s"
          (if domains = 1 then fastest_units untraced snd
           else Summary.min (List.map (fun p -> p.cpu_s) untraced))
          "s";
        metric "heap_peak_mb" heap_mb "MB";
        metric "alloc_words_per_instr"
          (Summary.median
             (List.map (fun p -> ratio p.minor_words (f (Probe.instructions p.probe))) untraced))
          "words/instr";
        metric "ok_ratio" ok_ratio "ratio";
        metric "err1_pct" err1 "%";
        metric "err2_pct" err2 "%";
      ]
    else begin
      let per_pass = List.map (layer_metrics ~domains) traced in
      let overhead =
        (ratio (Summary.min (List.map wall traced)) (Summary.min walls) -. 1.0) *. 100.0
      in
      let merged = Rollup.merge (List.filter_map (fun p -> p.rollup) traced) in
      print_rollup ~domains ~wall_ns:(List.fold_left (fun acc p -> acc + p.wall_ns) 0 traced) merged;
      List.mapi
        (fun i (n, unit, _) ->
          let value m =
            let _, _, v = List.nth m i in
            v
          in
          metric n (Summary.median (List.map value per_pass)) unit)
        (List.hd per_pass)
      @ [ metric "tracing.overhead_pct" overhead "%" ]
    end
  in
  List.iter
    (fun (n, v) ->
      match v with
      | J.Obj [ ("value", J.Float x); ("unit", J.String u) ] -> Printf.printf "%-40s %14.6g %s\n" n x u
      | _ -> ())
    metrics;
  print_endline
    (J.to_string ~indent:0
       (J.Obj
          [
            ("correct", J.Bool (failed = 0));
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj metrics);
          ]))
