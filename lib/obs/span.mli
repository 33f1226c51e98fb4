(** Nested spans recorded into per-domain, preallocated ring buffers.

    A span is a named begin/end pair on the domain that executed it.
    Each domain owns a private buffer (reached through domain-local
    storage, so recording takes no lock and allocates nothing on the
    hot path: two [int] array stores and a monotonic clock read per
    event). Buffers are fixed-capacity — when one fills, further
    events on that domain are counted as dropped rather than recorded,
    so an over-instrumented run degrades gracefully instead of
    resizing mid-flight.

    Names are interned once ({!id}) — typically at module
    initialization — so recording passes a small integer, not a
    string.

    With the default no-op sink ({!Sink}), {!with_} runs its thunk
    directly: one atomic load and a branch, nothing recorded.

    Reading a buffer back ({!events}) while another domain is still
    writing it is a data race; call it only after the parallel section
    has completed (the pool's [shutdown]/[with_pool] join, or any
    other happens-before edge). *)

type id
(** An interned span name. *)

val id : string -> id
(** Intern [name]. Idempotent; takes the intern lock, so call it once
    per site, not per event. *)

val with_ : id -> (unit -> 'a) -> 'a
(** [with_ id f] runs [f] inside a span: begin, run, end — the end is
    recorded even when [f] raises. When the sink is disabled this is
    just [f ()]. *)

type phase = Begin | End

type event = { domain : int; name : string; phase : phase; ts_ns : int }
(** One recorded event: the recording domain's id, the span name, and
    a monotonic timestamp (non-decreasing within a domain). *)

val events : unit -> event list
(** Every recorded event, grouped by buffer in creation order, each
    buffer's events in recording order. See the data-race caveat
    above. *)

val dropped : unit -> int
(** Events discarded because a domain's buffer was full. *)

val set_capacity : int -> unit
(** Per-domain buffer capacity (events) used for buffers created from
    now on. Called by {!Sink.enable}; requires a positive value
    ([FOM-O002] otherwise). *)

val reset : unit -> unit
(** Discard all recorded events and retire every existing buffer
    (domains lazily create fresh ones on their next event). *)
