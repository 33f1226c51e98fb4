(** Persistent on-disk result cache, keyed by content digest.

    Heavy results — detailed-simulation statistics, benchmark
    characterizations — are pure functions of their configuration, so
    a repeated run (a local edit-rerun loop, a re-triggered CI job)
    can skip them entirely when nothing relevant changed. An entry's
    {!digest} key folds together everything the result depends on:

    - the workload configuration (the synthetic-trace recipe and its
      RNG seed),
    - the machine / model configuration (cache hierarchy, predictor,
      model parameters),
    - the instruction counts ([n]),
    - [code_version] — a constant bumped whenever a code change can
      alter results, so every old entry goes stale at once.

    Configuration values enter the digest through {!part}: the
    [Marshal] bytes of a plain (closure-free) record canonically
    describe its content, and a type-layout change from editing the
    records shows up as a different digest — a miss, never a wrong
    hit.

    Entries are single files ([<digest>.fomc]) written atomically
    (temp file + rename), each carrying a
    ["<code_version>:<key>"] header that is verified before the value
    is used. Damage is never fatal: a corrupt entry is reported as a
    [FOM-E006] warning, a version-mismatched one as [FOM-E007], and in
    both cases the entry is deleted and the value recomputed.

    Diagnostic codes:
    - [FOM-E006] — cache entry unreadable/unwritable (corrupt file,
      I/O failure, permissions)
    - [FOM-E007] — stale cache entry (written by another
      [code_version]) *)

type t

val create : dir:string -> t
(** Open (creating if needed, like [mkdir -p]) a cache rooted at
    [dir]. Concurrent processes may share a directory: writes are
    atomic and a racing duplicate write of the same digest is
    harmless (both sides computed the same value).
    @raise Fom_check.Checker.Invalid with [FOM-E006] if the directory
    cannot be created. *)

val part : 'a -> string
(** A digest ingredient from any closure-free value: its [Marshal]
    bytes. *)

val digest : string list -> string
(** The cache key for a result depending on exactly [parts] (order
    matters): a hex digest of the parts and [code_version]. Include a
    distinct leading kind tag (e.g. ["sim"], ["characterization"]) so
    results of different types can never share a key. *)

val get : t -> key:string -> (unit -> 'a) -> 'a
(** [get t ~key compute] returns the cached value for [key] (as built
    by {!digest}) or computes, persists and returns it. Type safety
    rests on the key: a key must always be demanded at the same result
    type, which the kind tag in {!digest} guarantees. Unreadable or
    stale entries are recomputed and reported via
    {!drain_diagnostics}, never raised. *)

val entry_path : t -> key:string -> string
(** The file a key persists to (exposed for tests and tooling). *)

val stats : t -> int * int
(** [(hits, misses)] so far — a run that changed nothing reports all
    hits. *)

val drain_diagnostics : t -> Fom_check.Diagnostic.t list
(** Warnings accumulated since the last drain ([FOM-E006]/[FOM-E007]),
    oldest first; harnesses print them at the end of a pass. *)
