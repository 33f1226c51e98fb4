(** A set-associative cache with true-LRU replacement.

    Purely functional-correctness level: it tracks which lines are
    resident, not their contents. Timing is the caller's business
    ({!Hierarchy} assigns latencies to hit levels). *)

type t

val create : Geometry.t -> t
(** Empty cache. *)

val access : t -> int -> bool
(** [access t addr] returns [true] on hit. On a miss the line is
    allocated, evicting the set's LRU line; on a hit the line becomes
    most-recently used. *)

val probe : t -> int -> bool
(** Like {!access} but with no side effect at all. *)

val accesses : t -> int
(** Accesses made so far. *)

val misses : t -> int
(** Misses so far. *)

val clear : t -> unit
(** Empty the cache and zero the counters. *)
