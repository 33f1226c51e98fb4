(** Packed structure-of-arrays trace representation.

    A [Packed.t] materializes the first [n] instructions of a
    {!Source.t} once, into flat [int] arrays — one cache-friendly
    column per field, no per-instruction heap records. The packing is
    immutable after construction, so one packed trace is safely shared
    across an entire window sweep and across {!Fom_exec.Pool} domains
    without copying. Packing is the only way a trace reaches the
    passes that replay it, trace export included, and each
    {!Source.kind} has exactly one writer into the columns
    ({!of_source}). The columns are the library's one trace form: a
    recorded trace ({!Source.columns}) holds the same encoding, and
    {!Trace_file} parses into it and prints from it.

    The columns (all indexed by dynamic instruction, except the
    dependence columns which use compressed-sparse-row layout):

    - [op]: the {!Fom_isa.Opclass.to_int} tag;
    - [pc]: instruction address;
    - [ea]: a load's or store's effective address, a branch's or
      jump's [(target lsl 1) lor taken], else [-1] (only memory
      operations carry an address, only control ones a direction);
    - [dep_off]/[dep_val]: instruction [i]'s true producers are
      [dep_val.(dep_off.(i)) .. dep_val.(dep_off.(i+1) - 1)], in the
      source's order (a generator lists its most recently sampled
      producer first).

    A column may be longer than the packing: rows from [len] on, and
    [dep_val] entries from [dep_off.(len)] on, are spare capacity that
    no consumer reads. {!at_least} grows a packing into that room.

    The record is exposed so simulation kernels can index the columns
    directly; treat every array as read-only.

    [cached] is a cache of results derived from the columns, extended
    by the library that derives them ([type cached += ...]), so they
    live exactly as long as the packing. It is the one mutable part;
    the columns stay read-only. Never compare packings structurally
    or marshal them: the cache may hold locks and closures. *)

type cached = ..

type t = private {
  label : string;
  len : int;
  op : int array;
  pc : int array;
  ea : int array;
  dep_off : int array;
  dep_val : int array;
  cached : cached list Atomic.t;
}

val of_source : Source.t -> n:int -> t
(** Materialize the first [n] instructions ([FOM-T130] if [n <= 0]
    or if the columns for [n] rows cannot be allocated).
    Each {!Source.kind} has one column writer: a generator is stepped
    straight into the columns through its {!Stream.step} cursor, a
    phase schedule runs that same writer once per activation with its
    dependences re-based, and a recorded trace's columns are copied
    row by row, wrapping past their end with re-based dependences.
    The two generator writers allocate nothing per instruction. Packing runs in the [trace.pack] span. *)

val at_least : Source.t -> n:int -> t
(** A packing of at least [n] rows of the source, for callers that
    hand the library a program or source rather than a packing
    ([Simulate.run], [Characterize.inputs], [Profile.run] and
    [Iw_curve.measure], and their source variants).

    Each domain keeps a table with one entry per source: a generator
    over the physically same {!Program.t}, or a schedule of the
    physically same programs with the same budgets, under the same
    label. An entry holds its source's latest packing from this
    function weakly, so the table keeps no packing alive, and every
    call first drops the entries whose packing the GC has cleared, so
    it keeps no dead packing's program alive either.
    - A packing still in memory with at least [n] rows is returned as
      it is.
    - A shorter generator packing is grown: the entry also holds the
      {!Stream.t} that wrote it, standing after its last row, for as
      long as the packing lives, and the new rows are stepped on from
      there into a new record that shares the old columns where they
      have spare capacity (else the columns are copied into longer
      ones). The old record still reads its own rows.
    - A shorter schedule packing, or none, is replaced by a fresh
      packing of exactly [n] rows from {!of_source}.
    - A recorded source always packs afresh: its columns belong to the
      caller and are mutable.

    So a sweep of machines over several programs packs each program
    once and grows it when a longer packing is asked for. A consumer
    that reads only its first [n] rows gets the same result from any
    longer packing of the source. Packing and growing run in the
    [trace.pack] span; the [trace.packs] and [trace.rows] counters
    count fresh packings (by any function) and rows written, a growth
    only its new rows. [FOM-T130] as {!of_source}. *)

val padded : int -> margin:int -> int
(** [padded n ~margin] is [n + margin]: the rows a pass over [n]
    instructions reads with [margin] rows of lookahead. A sum past
    [max_int] is a packing no heap can hold: [FOM-T130] as
    {!of_source}, not a wrapped length. *)

val length : t -> int
(** Number of packed instructions. *)

val label : t -> string
(** Human-readable origin, inherited from the source. *)
