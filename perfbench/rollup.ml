(* Self-time rollup over recorded span events.

   Spans nest per domain. A span's inclusive time is its end minus its
   begin; its self time is its inclusive time less what its direct
   children cover. Summed over every span of a domain, self times equal
   the time that domain's outermost spans cover, so over a pass

     sum of self times + unattributed = domains * wall

   where [unattributed] is time no span covered: loop and checking
   overhead on the main domain, idle time on worker domains. *)

type phase = Begin | End
type event = { domain : int; name : string; phase : phase; ts_ns : int }
type row = { name : string; count : int; inclusive_ns : int; self_ns : int }

type t = {
  rows : row list;  (** largest self time first *)
  covered_ns : int;  (** summed duration of the outermost spans *)
}

type frame = { frame_name : string; start : int; mutable children : int }

let rows_of table =
  Hashtbl.fold
    (fun name (count, inclusive_ns, self_ns) acc -> { name; count; inclusive_ns; self_ns } :: acc)
    table []
  |> List.sort (fun a b -> compare (b.self_ns, a.name) (a.self_ns, b.name))

let add table name ~count ~inclusive ~self =
  let c, i, s = Option.value (Hashtbl.find_opt table name) ~default:(0, 0, 0) in
  Hashtbl.replace table name (c + count, i + inclusive, s + self)

let of_events events =
  let table = Hashtbl.create 32 in
  let covered = ref 0 in
  let close stack ts =
    match stack with
    | [] -> []
    | f :: rest ->
        let dur = ts - f.start in
        add table f.frame_name ~count:1 ~inclusive:dur ~self:(dur - f.children);
        (match rest with
        | parent :: _ -> parent.children <- parent.children + dur
        | [] -> covered := !covered + dur);
        rest
  in
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let prev = Option.value (Hashtbl.find_opt by_domain e.domain) ~default:[] in
      Hashtbl.replace by_domain e.domain (e :: prev))
    events;
  Hashtbl.iter
    (fun _ rev_events ->
      let stack = ref [] and last = ref 0 in
      List.iter
        (fun e ->
          last := e.ts_ns;
          match e.phase with
          | Begin -> stack := { frame_name = e.name; start = e.ts_ns; children = 0 } :: !stack
          (* An end with no open span began before recording started. *)
          | End -> stack := close !stack e.ts_ns)
        (List.rev rev_events);
      (* Spans still open when recording stopped close at the domain's
         last event. *)
      while !stack <> [] do
        stack := close !stack !last
      done)
    by_domain;
  { rows = rows_of table; covered_ns = !covered }

let merge rollups =
  let table = Hashtbl.create 32 in
  List.iter
    (fun t ->
      List.iter
        (fun r -> add table r.name ~count:r.count ~inclusive:r.inclusive_ns ~self:r.self_ns)
        t.rows)
    rollups;
  {
    rows = rows_of table;
    covered_ns = List.fold_left (fun acc t -> acc + t.covered_ns) 0 rollups;
  }

let find t name = List.find_opt (fun r -> String.equal r.name name) t.rows
let self_ns t name = match find t name with Some r -> r.self_ns | None -> 0
let inclusive_ns t name = match find t name with Some r -> r.inclusive_ns | None -> 0
let total_self_ns t = List.fold_left (fun acc r -> acc + r.self_ns) 0 t.rows

(* Time no span covered, given the domains that ran and the wall time
   they ran for. Negative only if spans claim more than the wall. *)
let unattributed_ns t ~domains ~wall_ns = (domains * wall_ns) - t.covered_ns
