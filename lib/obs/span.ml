(* Per-domain event buffers. A buffer is written only by its owning
   domain (reached through domain-local storage), so recording is
   lock-free; the registry of buffers and the name intern table are
   the only locked structures, touched at buffer creation and name
   registration, never per event.

   An event is two ints: a tag [2 * name_id + phase] and a timestamp.
   Timestamps are clamped non-decreasing per buffer so a span's end
   never precedes its begin even if the clock source misbehaves. *)

type id = int

type buffer = {
  domain : int;
  created : int;  (* registration order, for stable export *)
  epoch : int;  (* buffers from older epochs are retired, see reset *)
  tags : int array;
  ts : int array;
  mutable len : int;
  mutable dropped : int;
  mutable last_ts : int;
}

let lock = Mutex.create ()
let names : (string, int) Hashtbl.t = Hashtbl.create 64

let id name =
  Mutex.lock lock;
  let i =
    match Hashtbl.find_opt names name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length names in
        Hashtbl.add names name i;
        i
  in
  Mutex.unlock lock;
  i

let default_capacity = 1 lsl 16
let capacity = Atomic.make default_capacity

let set_capacity n =
  Fom_check.Checker.ensure ~code:"FOM-O002" ~path:"obs.span_capacity" (n > 0)
    "span buffer capacity must be positive";
  Atomic.set capacity n

let epoch = Atomic.make 0
let buffers : buffer list ref = ref []

let dummy =
  { domain = -1; created = -1; epoch = -1; tags = [||]; ts = [||]; len = 0; dropped = 0; last_ts = 0 }

let key = Domain.DLS.new_key (fun () -> dummy)

let fresh () =
  Mutex.lock lock;
  let b =
    {
      domain = (Domain.self () :> int);
      created = List.length !buffers;
      epoch = Atomic.get epoch;
      tags = Array.make (Atomic.get capacity) 0;
      ts = Array.make (Atomic.get capacity) 0;
      len = 0;
      dropped = 0;
      last_ts = 0;
    }
  in
  buffers := b :: !buffers;
  Mutex.unlock lock;
  Domain.DLS.set key b;
  b

let my_buffer () =
  let b = Domain.DLS.get key in
  if b.epoch = Atomic.get epoch then b else fresh ()

let emit tag =
  if Gate.is_on () then begin
    let b = my_buffer () in
    if b.len >= Array.length b.tags then b.dropped <- b.dropped + 1
    else begin
      let t = Clock.now_ns () in
      let t = if t < b.last_ts then b.last_ts else t in
      b.last_ts <- t;
      b.tags.(b.len) <- tag;
      b.ts.(b.len) <- t;
      b.len <- b.len + 1
    end
  end

let enter i = emit (2 * i)
let leave i = emit ((2 * i) + 1)

let with_ i f =
  if not (Gate.is_on ()) then f ()
  else begin
    enter i;
    (* Not [Fun.protect]: its [finally] closure would allocate on every
       traced call. *)
    match f () with
    | v ->
        leave i;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        leave i;
        Printexc.raise_with_backtrace e bt
  end

type phase = Begin | End

type event = { domain : int; name : string; phase : phase; ts_ns : int }

let snapshot_registry () =
  Mutex.lock lock;
  let current = Atomic.get epoch in
  let bufs =
    List.sort
      (fun a b -> compare a.created b.created)
      (List.filter (fun b -> b.epoch = current) !buffers)
  in
  let name_of = Array.make (Hashtbl.length names) "" in
  Hashtbl.iter (fun n i -> name_of.(i) <- n) names;
  Mutex.unlock lock;
  (bufs, name_of)

let events () =
  let bufs, name_of = snapshot_registry () in
  List.concat_map
    (fun b ->
      List.init b.len (fun k ->
          let tag = b.tags.(k) in
          {
            domain = b.domain;
            name = name_of.(tag / 2);
            phase = (if tag land 1 = 0 then Begin else End);
            ts_ns = b.ts.(k);
          }))
    bufs

let dropped () =
  let bufs, _ = snapshot_registry () in
  List.fold_left (fun acc b -> acc + b.dropped) 0 bufs

let reset () =
  Mutex.lock lock;
  ignore (Atomic.fetch_and_add epoch 1);
  buffers := [];
  Mutex.unlock lock
