(** Exporters: Chrome trace-event JSON and metrics snapshots.

    {!write_chrome_trace} writes the recorded spans in the Chrome
    trace-event format — an object with a ["traceEvents"] array of
    ["B"]/["E"] duration events — loadable in Perfetto
    ({:https://ui.perfetto.dev}) or [chrome://tracing]. One trace
    thread ([tid]) per recording domain, timestamps in microseconds
    relative to the earliest recorded event. Begin events whose end
    was never recorded (a domain's buffer filled, or a span was open
    when the data was exported) are closed synthetically at the
    domain's last timestamp so the file always balances.

    Like {!Span.events}, call these only after parallel sections have
    completed. *)

val write_chrome_trace : path:string -> unit
(** The trace, written through {!Fom_util.Json.write_file}. *)

val metrics_json : unit -> Fom_util.Json.t
(** The {!Metrics.snapshot} plus span-buffer statistics as a JSON
    object: [{"counters": {...}, "spans": {"events", "dropped"}}].
    Deterministically ordered by name. *)

val metrics_rows : unit -> string list * string list list
(** [(header, rows)] for {!Fom_util.Table.print}: one row per metric,
    sorted by name — the human summary of {!metrics_json}. *)
