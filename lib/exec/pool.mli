(** Domain-pool scheduler for embarrassingly parallel evaluation.

    The paper's value proposition is that the first-order model is
    orders of magnitude cheaper than detailed simulation; this module
    is how the repository spends that cheapness across cores. A pool
    owns a fixed set of participating domains and evaluates *immutable
    task descriptors* with {!map}:

    - {b One shared task stack}: every participating domain pops the
      top of one stack under one mutex. A batch is pushed with task 0
      on top, so a single domain runs it in index order, and a nested
      map's subtasks land above the task that spawned them and run
      first (depth-first). Every task — one detailed sim, one IW-curve
      window — is scheduled on its own; one slow benchmark does not
      serialize a chunk.
    - {b Deterministic ordering}: results are delivered in task order
      regardless of which domain ran which task — a [jobs = 1] pool is
      bit-identical to [jobs = N], across repeated runs.
    - {b Domain capping}: the pool never runs more domains than
      {!recommended_domain_count} — oversubscribed domains only add
      stop-the-world GC synchronization (the classic ~0.5x "speedup"
      of an oversubscribed OCaml 5 pool). The advertised {!jobs} count
      is preserved for callers that gate parallel paths on it;
      {!create}'s [?domains] overrides the cap (tests use it to force
      true multi-domain execution on single-core machines).
    - {b Exception capture}: a task that raises does not tear down the
      pool. Failures are collected per task and surfaced as
      {!Fom_check} diagnostics ([FOM-E002], or the task's own
      diagnostics re-rooted under its index); the surviving pool can
      immediately run the next batch.
    - {b Reentrant}: a task may itself call {!map} on the same pool.
      The caller of a map drives while it waits, popping tasks while
      the stack is taller than it was before its batch was pushed —
      its own batch, or work pushed after it, never older work below
      that {e batch floor}. So nested maps make progress even on a
      single domain, the domain computing a {!Memo} cell does not
      start the older outer tasks that demand it, and {!help} lets a domain
      blocked on something else (a {!Memo} future) drain the pool
      instead of sleeping.

    Diagnostic codes ([FOM-Exxx], "execution"):
    - [FOM-E001] — invalid job or domain count (flag, [FOM_JOBS], or
      [create])
    - [FOM-E002] — a task raised a non-diagnostic exception
    - [FOM-E003] — the pool was used after {!shutdown}
    - [FOM-E004] — an explicit job count oversubscribes the machine
      (warning, from {!resolve_jobs}) *)

type t
(** A pool of worker domains. The creating domain participates in
    every {!map}, so a pool running [d] domains spawns [d - 1] and a
    single-domain pool spawns none: its caller runs every task. *)

val recommended_domain_count : unit -> int
(** The runtime's recommended domain count — the point past which more
    workers stop helping. On a single-core machine this is [1], and
    harnesses that default through {!resolve_jobs} run sequentially. *)

val resolve_jobs : ?requested:int -> unit -> int * Fom_check.Diagnostic.t list
(** Resolve a harness's worker count; never raises. With no
    [?requested] value this follows [FOM_JOBS], falling back to
    {!recommended_domain_count} — in particular, sequential when the
    machine recommends a single domain and [FOM_JOBS] is unset. An
    explicit [?requested] count wins. Diagnostics come back alongside
    the count instead of being raised, so harnesses can report them
    through their normal channel:
    - a non-positive [?requested] count, or a malformed or
      non-positive [FOM_JOBS] value, yields a [FOM-E001] {e error}
      diagnostic and a safe sequential fallback of [1] — callers
      should treat the error as fatal ([fom check] folds it into its
      report and exits 1; the bench prints it and aborts);
    - a count exceeding {!recommended_domain_count} (requested or from
      [FOM_JOBS]) yields a [FOM-E004] {e warning}: the pool caps the
      domains it actually runs at the recommended count (see
      {!create}), so oversubscription never changes results, it only
      fails to help. *)

val create : ?jobs:int -> ?domains:int -> unit -> t
(** [create ~jobs ()] starts a pool advertising [jobs] workers
    (default: the [FOM_JOBS] environment variable if set and
    non-blank, which must then be a positive integer, else
    {!recommended_domain_count}). Requires [jobs >= 1]. The number of
    domains actually run is [min jobs (recommended_domain_count ())]
    unless [?domains] overrides it — results never depend on either
    count.
    @raise Fom_check.Checker.Invalid with [FOM-E001] otherwise. *)

val jobs : t -> int
(** The pool's advertised worker count (the [--jobs] request,
    including the calling domain). *)

val domains : t -> int
(** The number of domains actually participating (including the
    calling domain): [min (jobs t) (recommended_domain_count ())]
    unless [create ?domains] overrode the cap. *)

val shutdown : t -> unit
(** Drain outstanding work, join the worker domains and mark the pool
    closed. Idempotent; subsequent {!map} calls raise [FOM-E003]. *)

val with_pool : ?jobs:int -> ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it
    down. *)

val help : t -> bool
(** Run the task on top of the pool's stack, if any is queued, with
    no batch floor: the caller waits on no batch of its own. [false]
    means nothing was runnable. This is how a domain blocked
    on something other than the pool (a {!Memo} future) stays useful
    instead of sleeping. *)

val map : t -> f:('a -> 'b) -> 'a list -> 'b list
(** [map pool ~f tasks] evaluates [f] over every task and returns the
    results in task order. All tasks run to completion even when some
    fail.
    @raise Fom_check.Checker.Invalid if any task raised, with every
    failed task's diagnostics: its own {!Fom_check.Checker.Invalid}
    diagnostics re-rooted under [exec.task[i]], or a single [FOM-E002]
    diagnostic for any other exception. *)
