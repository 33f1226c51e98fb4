(* Metric cells are plain atomics; the registry (name -> metric) is
   the only locked structure and is touched on registration and
   snapshot, never on update. *)

type counter = { c_name : string; c_cell : int Atomic.t }
type gauge = { g_name : string; g_cell : int Atomic.t }

(* One bucket per possible bit length of a non-negative value: bucket
   [i] counts values of [i] significant bits, i.e. 2^(i-1) <= v < 2^i,
   with zeros in bucket 0. *)
let bucket_count = 63

type histogram = { h_name : string; h_sum : int Atomic.t; h_buckets : int Atomic.t array }

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let lock = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let kind_label = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let register name make =
  Mutex.lock lock;
  let metric =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.add registry name m;
        m
  in
  Mutex.unlock lock;
  metric

let kind_clash name found =
  Fom_check.Checker.(
    run_exn
      (fail ~code:"FOM-O001" ~path:("obs.metric." ^ name)
         (Printf.sprintf "metric %S is already registered as a %s" name (kind_label found))));
  Fom_check.Checker.internal_error "unreachable after a failed rule"

let counter name =
  match register name (fun () -> Counter { c_name = name; c_cell = Atomic.make 0 }) with
  | Counter c -> c
  | other -> kind_clash name other

let gauge name =
  match register name (fun () -> Gauge { g_name = name; g_cell = Atomic.make 0 }) with
  | Gauge g -> g
  | other -> kind_clash name other

let histogram name =
  match
    register name (fun () ->
        Histogram
          {
            h_name = name;
            h_sum = Atomic.make 0;
            h_buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
          })
  with
  | Histogram h -> h
  | other -> kind_clash name other

let add c n = if Gate.is_on () then ignore (Atomic.fetch_and_add c.c_cell n)
let incr c = add c 1
let set g v = if Gate.is_on () then Atomic.set g.g_cell v

let bit_length v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let observe h v =
  if Gate.is_on () then begin
    let v = if v < 0 then 0 else v in
    ignore (Atomic.fetch_and_add h.h_buckets.(bit_length v) 1);
    ignore (Atomic.fetch_and_add h.h_sum v)
  end

type hist_snapshot = { count : int; sum : int; buckets : (int * int) list }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_snapshot) list;
}

let hist_snapshot h =
  let count = ref 0 and buckets = ref [] in
  for i = bucket_count - 1 downto 0 do
    let n = Atomic.get h.h_buckets.(i) in
    if n > 0 then begin
      count := !count + n;
      (* Inclusive upper bound of the i-bit bucket: 2^i - 1. *)
      buckets := ((1 lsl i) - 1, n) :: !buckets
    end
  done;
  { count = !count; sum = Atomic.get h.h_sum; buckets = !buckets }

let snapshot () =
  Mutex.lock lock;
  let metrics = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock lock;
  let by_name name = List.sort (fun (a, _) (b, _) -> String.compare a b) name in
  {
    counters =
      by_name
        (List.filter_map
           (function Counter c -> Some (c.c_name, Atomic.get c.c_cell) | _ -> None)
           metrics);
    gauges =
      by_name
        (List.filter_map
           (function Gauge g -> Some (g.g_name, Atomic.get g.g_cell) | _ -> None)
           metrics);
    histograms =
      by_name
        (List.filter_map
           (function Histogram h -> Some (h.h_name, hist_snapshot h) | _ -> None)
           metrics);
  }

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ -> function
      | Counter c -> Atomic.set c.c_cell 0
      | Gauge g -> Atomic.set g.g_cell 0
      | Histogram h ->
          Atomic.set h.h_sum 0;
          Array.iter (fun cell -> Atomic.set cell 0) h.h_buckets)
    registry;
  Mutex.unlock lock
