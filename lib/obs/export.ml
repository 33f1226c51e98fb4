module Json = Fom_util.Json

(* One "B"/"E" trace event. Chrome wants timestamps in (fractional)
   microseconds; they are rebased to the earliest recorded event so
   the numbers stay small. *)
let duration_event ~name ~ph ~tid ~us =
  Json.Obj
    [
      ("name", Json.String name);
      ("cat", Json.String "fom");
      ("ph", Json.String ph);
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("ts", Json.Float us);
    ]

let thread_name_event ~tid =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "domain %d" tid)) ]);
    ]

let chrome_trace () =
  let events = Span.events () in
  let t0 =
    List.fold_left (fun acc (e : Span.event) -> Int.min acc e.Span.ts_ns) max_int events
  in
  let us ts_ns = float_of_int (ts_ns - t0) /. 1000.0 in
  (* Group by domain, preserving each domain's recording order: begin/
     end nesting is per domain, and balancing (dropping stray ends,
     synthesizing missing ends) must follow that per-domain order. *)
  let domains = List.sort_uniq compare (List.map (fun (e : Span.event) -> e.Span.domain) events) in
  let per_domain d =
    let mine = List.filter (fun (e : Span.event) -> e.Span.domain = d) events in
    let depth = ref 0 in
    let open_names = ref [] in
    let last_ts = ref 0 in
    let rendered =
      List.filter_map
        (fun (e : Span.event) ->
          last_ts := e.Span.ts_ns;
          match e.Span.phase with
          | Span.Begin ->
              incr depth;
              open_names := e.Span.name :: !open_names;
              Some (duration_event ~name:e.Span.name ~ph:"B" ~tid:d ~us:(us e.Span.ts_ns))
          | Span.End ->
              if !depth = 0 then None (* stray end: its begin predates this session *)
              else begin
                decr depth;
                open_names := (match !open_names with _ :: rest -> rest | [] -> []);
                Some (duration_event ~name:e.Span.name ~ph:"E" ~tid:d ~us:(us e.Span.ts_ns))
              end)
        mine
    in
    (* Close spans still open at export time (buffer filled before the
       end event, or the span genuinely outlives the export). *)
    let closers =
      List.map (fun name -> duration_event ~name ~ph:"E" ~tid:d ~us:(us !last_ts)) !open_names
    in
    (thread_name_event ~tid:d :: rendered) @ closers
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.concat_map per_domain domains));
      ("displayTimeUnit", Json.String "ms");
    ]

let write_chrome_trace ~path = Json.write_file ~path (chrome_trace ())

let metrics_json () =
  let s = Metrics.snapshot () in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.Metrics.counters));
      ( "spans",
        Json.Obj
          [
            ("events", Json.Int (List.length (Span.events ())));
            ("dropped", Json.Int (Span.dropped ()));
          ] );
    ]

let metrics_rows () =
  let s = Metrics.snapshot () in
  let counter_rows = List.map (fun (n, v) -> [ n; "counter"; string_of_int v ]) s.Metrics.counters in
  let span_rows =
    [
      [ "spans.events"; "counter"; string_of_int (List.length (Span.events ())) ];
      [ "spans.dropped"; "counter"; string_of_int (Span.dropped ()) ];
    ]
  in
  ( [ "metric"; "kind"; "value" ],
    List.sort compare (counter_rows @ span_rows) )
