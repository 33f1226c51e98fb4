(** Named counters.

    Counters are registered once by name — typically at module
    initialization of the instrumented library — and updated from any
    domain through atomic cells, so recording never takes a lock. All
    updates are gated on the global sink ({!Sink.enable}): with the
    default no-op sink an update is one atomic load and a branch, and
    no cross-domain cache-line traffic happens at all.

    Registration is idempotent: asking for ["pool.tasks"] twice
    returns the same counter. Metric names are a global namespace (see
    the README glossary).

    {!snapshot} returns every registered counter sorted by name, so
    exports are deterministic regardless of registration or update
    order. *)

type counter

val counter : string -> counter
(** Register (or look up) a monotonically increasing counter. *)

val add : counter -> int -> unit
val incr : counter -> unit

type snapshot = { counters : (string * int) list  (** sorted by name *) }

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every registered counter (registrations are kept). Called by
    {!Sink.enable} so each enabled session starts from scratch. *)
