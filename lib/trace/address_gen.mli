(** Effective-address generators for synthetic memory instructions.

    Each static load/store owns one generator; its dynamic instances
    draw successive effective addresses from it. The three kinds span
    the locality regimes that matter to the first-order model:

    - [Stride] walks a region sequentially (array streaming): every
      [line_size / stride]-th access opens a new line, so miss events
      arrive in regular, closely-spaced groups — the clustered long
      misses of the paper's Section 4.3 when the region exceeds the L2.
    - [Random] touches a region uniformly: the region size against each
      cache level's capacity sets the miss rates (working-set model).
    - [Chase] is like [Random] but models pointer chasing; the stream
      layer additionally serializes each chase load on its own previous
      instance, producing the low-ILP, long-miss-bound behaviour of
      benchmarks like mcf. *)

type kind =
  | Stride of { stride : int }  (** sequential walk with a byte stride *)
  | Random  (** uniform within the region *)
  | Chase  (** uniform within the region, serialized by the stream *)

type region = { base : int; size : int }
(** A byte range [base, base + size). [size] must be positive and a
    multiple of 8. *)

type t
(** Mutable generator state. *)

val create : seed_rng:Fom_util.Rng.t -> kind -> region -> t
(** Fresh generator over a region; [Random]/[Chase] draw from
    [seed_rng] (a dedicated split stream). *)

val next : t -> int
(** Next effective address, 8-byte aligned, within the region. *)
