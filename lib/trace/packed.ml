type cached = ..

type t = {
  label : string;
  len : int;
  op : int array;
  pc : int array;
  ea : int array;
  dep_off : int array;
  dep_val : int array;
  cached : cached list Atomic.t;
}

let label t = t.label
let length t = t.len

(* Row [i]'s producers: the [nd] entries of [src] from [from], re-based
   by [rebase]. The dependence array doubles when full. *)
let[@inline] write_deps c deps i src ~from nd ~rebase =
  let used = c.dep_off.(i) in
  if used + nd > Array.length !deps then begin
    let grown = Array.make (2 * (used + nd)) 0 in
    Array.blit !deps 0 grown 0 used;
    deps := grown
  end;
  let dep_val = !deps in
  for k = 0 to nd - 1 do
    dep_val.(used + k) <- src.(from + k) + rebase
  done;
  c.dep_off.(i + 1) <- used + nd

(* Generator rows: step [stream] [count] times into rows [first ..],
   re-basing its dependences by [rebase]. The generator builds
   well-formed instructions and its cursor already holds the column
   encodings, so nothing here needs validating and nothing allocates. *)
let write_stream c deps stream ~first ~count ~rebase =
  for i = first to first + count - 1 do
    let cur = Stream.step stream in
    c.op.(i) <- cur.Stream.tag;
    c.pc.(i) <- cur.Stream.pc;
    c.ea.(i) <- cur.Stream.ea;
    write_deps c deps i cur.Stream.deps ~from:0 cur.Stream.ndeps ~rebase
  done

(* A phase schedule: each activation is a fresh stream of its phase's
   program, numbered from the row it starts at; after the last phase
   the schedule starts over. Budgets are positive, so this ends. *)
let write_schedule c deps phases =
  let row = ref 0 in
  while !row < c.len do
    List.iter
      (fun (program, budget) ->
        let count = Int.min budget (c.len - !row) in
        if count > 0 then begin
          write_stream c deps (Stream.create program) ~first:!row ~count ~rebase:!row;
          row := !row + count
        end)
      phases
  done

(* A recorded trace, already validated by {!Source.of_columns}: row
   [i] is row [i mod len], its dependences re-based by the completed
   copies. *)
let write_recorded c deps (r : Source.columns) =
  let len = Array.length r.Source.op in
  for i = 0 to c.len - 1 do
    let j = i mod len in
    c.op.(i) <- r.op.(j);
    c.pc.(i) <- r.pc.(j);
    c.ea.(i) <- r.ea.(j);
    let from = r.dep_off.(j) in
    write_deps c deps i r.dep_val ~from (r.dep_off.(j + 1) - from) ~rebase:(i - j)
  done

(* A length the heap cannot hold is the caller's input too: report it
   rather than end the process. *)
let cannot_allocate length =
  raise
    (Fom_check.Checker.Invalid
       (Fom_check.Checker.fail ~code:"FOM-T130" ~path:"packed.n"
          ("cannot allocate a packed trace of " ^ length ^ " instructions")))

let padded n ~margin =
  if n > max_int - margin then cannot_allocate (Printf.sprintf "%d + %d" n margin);
  n + margin

(* A column of [capacity] entries for a packing of [n] rows. *)
let column ~n capacity =
  match Array.make capacity 0 with
  | a -> a
  | exception (Out_of_memory | Invalid_argument _) -> cannot_allocate (string_of_int n)

let m_packs = Fom_obs.Metrics.counter "trace.packs"
let m_rows = Fom_obs.Metrics.counter "trace.rows"

(* The source's first [n] rows, and for a generator the stream that
   wrote them, standing after the last. *)
let pack source ~n =
  Fom_check.Checker.ensure ~code:"FOM-T130" ~path:"packed.n" (n > 0)
    "packed trace length must be positive";
  let c =
    {
      label = Source.label source;
      len = n;
      op = column ~n n;
      pc = column ~n n;
      ea = column ~n n;
      dep_off = column ~n (n + 1);
      dep_val = [||];
      cached = Atomic.make [];
    }
  in
  (* The presets average 0.08 to 1.29 dependences per instruction. *)
  let deps = ref (column ~n (n + (n / 2))) in
  let stream =
    match source.Source.kind with
    | Source.Generator program ->
        let stream = Stream.create program in
        write_stream c deps stream ~first:0 ~count:n ~rebase:0;
        Some stream
    | Source.Schedule phases ->
        write_schedule c deps phases;
        None
    | Source.Recorded columns ->
        write_recorded c deps columns;
        None
  in
  Fom_obs.Metrics.incr m_packs;
  Fom_obs.Metrics.add m_rows n;
  ({ c with dep_val = !deps }, stream)

(* [from] grown to [n] rows by [stream], the generator stream that wrote
   [from]'s rows and stands after its last. The new rows go into
   [from]'s spare capacity where it has room: they lie past [from.len],
   which no holder of [from] reads. A column without room is copied
   into one an eighth longer than [from], so that a sweep creeping up
   in length copies once. *)
let grow from stream ~n =
  let len = from.len in
  let widen a extra =
    if Array.length a - extra >= n then a
    else begin
      let wider = column ~n (Int.max n (len + (len / 8)) + extra) in
      Array.blit a 0 wider 0 (len + extra);
      wider
    end
  in
  let c =
    {
      from with
      len = n;
      op = widen from.op 0;
      pc = widen from.pc 0;
      ea = widen from.ea 0;
      dep_off = widen from.dep_off 1;
      cached = Atomic.make [];
    }
  in
  let deps = ref c.dep_val in
  write_stream c deps stream ~first:len ~count:(n - len) ~rebase:0;
  Fom_obs.Metrics.add m_rows (n - len);
  { c with dep_val = !deps }

(* Every packing, explicit or through {!at_least}, and every growth
   runs in this span. *)
let s_pack = Fom_obs.Span.id "trace.pack"
let of_source source ~n = fst (Fom_obs.Span.with_ s_pack (fun () -> pack source ~n))

(* Whether a packing of [a] serves [b]: a generator over the physically
   same program, or a schedule of the same programs and budgets, under
   one label. A recorded trace's columns belong to its caller and are
   mutable, so it never matches. *)
let same_source (a : Source.t) (b : Source.t) =
  String.equal a.Source.label b.Source.label
  &&
  match (a.Source.kind, b.Source.kind) with
  | Source.Generator p, Source.Generator q -> p == q
  | Source.Schedule a, Source.Schedule b ->
      List.equal (fun (p, budget) (q, budget') -> p == q && budget = budget') a b
  | _ -> false

(* A source's latest packing from {!at_least}, held weakly, and for a
   generator the stream that wrote it, standing after its last row. The
   stream is an ephemeron's data keyed on the packing, so it dies with
   the packing: the table holds no stream of a dead packing. *)
type entry = {
  source : Source.t;
  packing : t Weak.t;
  stream : (t, Stream.t) Ephemeron.K1.t option;
}

(* The calling domain's entries, one per source. Each call first drops
   the entries whose packing the GC has cleared ([Weak.check] keeps
   nothing alive), so the table holds no dead packing's source. Only
   the matching entry's weak pointer is read: reading one during a
   major cycle keeps what it points to alive through that cycle. *)
let table : entry list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let at_least source ~n =
  let live = List.filter (fun e -> Weak.check e.packing 0) (Domain.DLS.get table) in
  Domain.DLS.set table live;
  match source.Source.kind with
  | Source.Recorded _ -> of_source source ~n
  (* A non-positive [n] reuses nothing: {!of_source} rejects it. *)
  | (Source.Generator _ | Source.Schedule _) when n <= 0 -> of_source source ~n
  | Source.Generator _ | Source.Schedule _ ->
      let found, others = List.partition (fun e -> same_source e.source source) live in
      (* The entry is off the table while its stream moves on, so a
         growth that raises leaves no stream out of step with its
         packing. *)
      Domain.DLS.set table others;
      let remember write =
        let packed, stream = Fom_obs.Span.with_ s_pack write in
        let packing = Weak.create 1 in
        Weak.set packing 0 (Some packed);
        ({ source; packing; stream = Option.map (Ephemeron.K1.make packed) stream }, packed)
      in
      let fresh () = remember (fun () -> pack source ~n) in
      let entry, packed =
        match found with
        | [ e ] -> (
            match Weak.get e.packing 0 with
            | Some packed when packed.len >= n -> (e, packed)
            | Some from -> (
                match Option.bind e.stream (fun s -> Ephemeron.K1.query s from) with
                | Some stream -> remember (fun () -> (grow from stream ~n, Some stream))
                | None -> fresh ())
            | None -> fresh ())
        | _ -> fresh ()
      in
      Domain.DLS.set table (entry :: others);
      packed
