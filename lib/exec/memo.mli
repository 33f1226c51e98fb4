(** Future-based once-cell memoization for concurrent demand.

    A [Memo.t] maps keys to lazily computed values with an
    *exactly-once* guarantee under concurrency: the first domain to
    demand a key claims its cell and computes; every other domain
    demanding the same key while the computation is in flight waits
    for that one result instead of duplicating the work. This replaces
    the "compute outside the lock, keep whichever lands first" tables
    that let two domains each spend seconds characterizing the same
    benchmark — the ~0.5x parallel "speedup" signature.

    Waiting is productive: a demander blocked on an in-flight key
    repeatedly offers itself to the memo's pool ({!Pool.help}) —
    running whatever task is on top of the pool's stack — and only
    sleeps on the cell's condition variable when the pool has nothing
    runnable. Correctness never depends on the helping; the owner can
    always finish on its own, so every waiter is woken by the owner's
    publish at the latest.

    A computation that raises is published as failed: the owner's
    exception (with its backtrace) is re-raised by every current and
    future demander of that key, deterministically, without
    recomputing.

    Compute functions may freely use the pool (nested maps are safe),
    but must not demand — directly or through tasks they wait on — a
    key that is currently being computed by the demanding domain
    itself: the direct case raises [FOM-E005] (re-entrant demand); a
    genuine cross-domain cyclic dependency would deadlock, exactly as
    it would have deadlocked a sequential evaluation in an infinite
    recursion. The sims / characterizations / packed traces this
    repository memoizes form a DAG, so no such cycle exists.

    Diagnostic codes:
    - [FOM-E005] — re-entrant demand for a key this domain is already
      computing *)

type ('k, 'v) t
(** A memo table from ['k] (hashable keys) to ['v]. *)

val create : ?pool:Pool.t -> unit -> ('k, 'v) t
(** A fresh, empty table. When [?pool] is given, demanders waiting on
    an in-flight key help drain that pool instead of sleeping. *)

val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [get t key compute] returns the memoized value for [key],
    invoking [compute] exactly once per key per process — the first
    demander computes, concurrent demanders wait for its result.
    Re-raises the owner's exception if the computation failed. *)
