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

let pack source ~n =
  Fom_check.Checker.ensure ~code:"FOM-T130" ~path:"packed.n" (n > 0)
    "packed trace length must be positive";
  let column len =
    match Array.make len 0 with
    | a -> a
    | exception (Out_of_memory | Invalid_argument _) -> cannot_allocate (string_of_int n)
  in
  let c =
    {
      label = Source.label source;
      len = n;
      op = column n;
      pc = column n;
      ea = column n;
      dep_off = column (n + 1);
      dep_val = [||];
      cached = Atomic.make [];
    }
  in
  (* The presets average 0.08 to 1.29 dependences per instruction. *)
  let deps = ref (column (n + (n / 2))) in
  (match source.Source.kind with
  | Source.Generator program ->
      write_stream c deps (Stream.create program) ~first:0 ~count:n ~rebase:0
  | Source.Schedule phases -> write_schedule c deps phases
  | Source.Recorded columns -> write_recorded c deps columns);
  { c with dep_val = !deps }

(* Every packing, explicit or through {!at_least}, runs in this span. *)
let s_pack = Fom_obs.Span.id "trace.pack"
let of_source source ~n = Fom_obs.Span.with_ s_pack (fun () -> pack source ~n)

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

(* The calling domain's last packing from {!at_least} and its source.
   The packing is held weakly, so the slot keeps none alive. The source
   is compared first: reading a weak pointer during a major cycle keeps
   what it points to alive through that cycle. *)
let last : (Source.t * t Weak.t) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let at_least source ~n =
  (* A non-positive [n] reuses nothing: {!of_source} rejects it. *)
  let reused =
    match Domain.DLS.get last with
    | Some (from, slot) when n > 0 && same_source from source -> (
        match Weak.get slot 0 with Some packed when packed.len >= n -> Some packed | _ -> None)
    | _ -> None
  in
  match (reused, source.Source.kind) with
  | Some packed, _ -> packed
  | None, Source.Recorded _ -> of_source source ~n
  | None, (Source.Generator _ | Source.Schedule _) ->
      let packed = of_source source ~n in
      let slot = Weak.create 1 in
      Weak.set slot 0 (Some packed);
      Domain.DLS.set last (Some (source, slot));
      packed
