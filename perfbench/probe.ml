(* Per-layer accounting around each library call a pass makes: calls,
   failures, host nanoseconds, minor-heap words, instructions fed,
   simulated cycles and, with tracing on, simulator events. Each call
   runs inside a span named "bench.<layer>"; with tracing on, the
   library's own spans (sim.run, iw.point, pool.task, memo.compute)
   nest under it. Minor words and events are exact on one domain; on
   two, a call also counts what the other domain did meanwhile (minor
   words: the work it helped the pool with while it waited).

   A call given a [key] is a unit of the pass: its wall and CPU time
   are kept under that key, so that the runner can take each unit's
   fastest time over the passes. *)

type layer = {
  mutable calls : int;
  mutable failed : int;
  mutable ns : int;
  mutable words : float;
  mutable instrs : int;
  mutable cycles : int;
  mutable events : int;
}

type t = {
  lock : Mutex.t;
  digests : Digests.t;
  layers : (string, layer) Hashtbl.t;
  units : (string, float * float) Hashtbl.t;  (** key -> wall s, CPU s *)
  mutable waits_ns : float list;
  mutable busy_ns : int;
}

let create digests =
  {
    lock = Mutex.create ();
    digests;
    layers = Hashtbl.create 16;
    units = Hashtbl.create 64;
    waits_ns = [];
    busy_ns = 0;
  }

(* Process user+sys seconds. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let span_lock = Mutex.create ()
let span_ids = Hashtbl.create 16

let span_of name =
  Mutex.lock span_lock;
  let id =
    match Hashtbl.find_opt span_ids name with
    | Some id -> id
    | None ->
        let id = Adapter.span_id ("bench." ^ name) in
        Hashtbl.add span_ids name id;
        id
  in
  Mutex.unlock span_lock;
  id

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
      let l = { calls = 0; failed = 0; ns = 0; words = 0.0; instrs = 0; cycles = 0; events = 0 } in
      Hashtbl.add t.layers name l;
      l

(* Invariants every layer result satisfies for any seed. The machine
   retires up to its width per cycle, so a run asked for [n]
   instructions may retire up to [width - 1] more. *)
let sim_ok ~n ~width (s : Adapter.Stats.t) =
  let instructions = s.Adapter.Stats.instructions and cycles = s.Adapter.Stats.cycles in
  let ipc = Adapter.Stats.ipc s in
  instructions >= n
  && instructions < n + width
  && cycles > 0
  && cycles * width >= instructions
  && ipc > 0.0
  && ipc <= float_of_int width

let finite_positive x = Float.is_finite x && x > 0.0
let cpi_ok b = finite_positive (Adapter.Cpi.total b)

let inputs_ok (i : Adapter.Inputs.t) =
  finite_positive i.Adapter.Inputs.alpha
  && finite_positive i.Adapter.Inputs.beta
  && finite_positive i.Adapter.Inputs.avg_latency

let characterization_ok ((curve : Adapter.Iw_curve.t), _, inputs) =
  curve.Adapter.Iw_curve.points <> []
  && List.for_all
       (fun p -> finite_positive p.Adapter.Iw_curve.ipc)
       curve.Adapter.Iw_curve.points
  && inputs_ok inputs

let mismatches = Atomic.make 0

let digest_ok t key digest =
  Digests.check t.digests key digest
  || begin
       if Atomic.fetch_and_add mismatches 1 < 10 then
         prerr_endline ("perfbench: output differs from stored digest: " ^ key);
       false
     end

(* Run one layer call: a call that raises, whose result [ok] rejects,
   or whose [digest] differs from the one stored under its key, counts
   as failed. [events] names a library counter to charge to the
   layer. *)
let call t name ?(instrs = 0) ?(cycles = fun _ -> 0) ?events ?key ?digest ~ok f =
  let id = span_of name in
  let key = Option.map (fun k -> name ^ "/" ^ k) key in
  let counter () = match events with Some c -> Adapter.counter c | None -> 0 in
  let e0 = counter () in
  let c0 = if key = None then 0.0 else cpu () in
  let w0 = Gc.minor_words () in
  let t0 = Adapter.now_ns () in
  let result = match Adapter.with_span id f with v -> Ok v | exception e -> Error e in
  let ns = Adapter.now_ns () - t0 in
  let words = Gc.minor_words () -. w0 in
  let cpu_s = if key = None then 0.0 else cpu () -. c0 in
  let events = counter () - e0 in
  let good =
    match result with
    | Ok v -> (
        ok v
        &&
        match (key, digest) with
        | Some k, Some d -> digest_ok t k (d v)
        | _ -> true)
    | Error e ->
        prerr_endline (Printf.sprintf "perfbench: %s raised %s" name (Printexc.to_string e));
        false
  in
  locked t (fun () ->
      let l = layer t name in
      l.calls <- l.calls + 1;
      if not good then l.failed <- l.failed + 1;
      l.ns <- l.ns + ns;
      l.words <- l.words +. words;
      l.instrs <- l.instrs + instrs;
      l.events <- l.events + events;
      Option.iter (fun k -> Hashtbl.replace t.units k (float_of_int ns /. 1e9, cpu_s)) key;
      match result with Ok v -> l.cycles <- l.cycles + cycles v | Error _ -> ());
  Result.to_option result

(* Wrap a pool task: record the wait from submission to start, and the
   task's own time. *)
let task t ~submitted_ns f x =
  let start = Adapter.now_ns () in
  let v = f x in
  let stop = Adapter.now_ns () in
  locked t (fun () ->
      t.waits_ns <- float_of_int (start - submitted_ns) :: t.waits_ns;
      t.busy_ns <- t.busy_ns + (stop - start));
  v

let find t name = Hashtbl.find_opt t.layers name
let fold t f init = Hashtbl.fold (fun _ l acc -> f l acc) t.layers init
let attempted t = fold t (fun l acc -> acc + l.calls) 0
let failed t = fold t (fun l acc -> acc + l.failed) 0
let instructions t = fold t (fun l acc -> acc + l.instrs) 0
