(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the repository flows through this module so
    that every trace, workload and experiment is reproducible from a seed.
    The generator is SplitMix64 (Steele, Lea, Flood; JDK 8), which has a
    64-bit state, passes BigCrush, and supports cheap stream splitting. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each static instruction / address generator its own
    stream so that adding instructions does not perturb unrelated draws. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing it. *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] independent generators from [t] in one
    step, advancing [t] by [n] draws. The split is performed *before*
    any parallel work begins, so handing stream [i] to task [i] gives
    every task the same draws no matter which domain runs it or in
    what order — the seed-discipline that keeps {!Fom_exec.Pool} runs
    bit-identical to sequential ones. Requires [n >= 0]. *)

val split_seeds : t -> int -> int array
(** [split_seeds t n] is {!split_n} flattened to plain non-negative
    integer seeds, for APIs that take a seed rather than a generator
    (workload configs, [Fom_trace.Source.of_program ~seed]). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0, n-1]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] draws uniformly from [0, x). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val geometric : t -> float -> int
(** [geometric t p] draws the number of failures before the first success
    of a Bernoulli([p]) process; support starts at 0. Requires
    [0 < p <= 1]. *)

val categorical : t -> float array -> int
(** [categorical t weights] draws an index with probability proportional
    to its (non-negative) weight. Requires a positive total weight. *)
