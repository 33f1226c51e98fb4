(** Direction behaviour of synthetic conditional branches.

    Each static branch owns one behaviour; its dynamic instances draw
    successive outcomes. The mixture of behaviours in a workload sets
    the gShare misprediction rate:

    - [Biased] branches (taken with a probability near 0 or 1) are
      learned almost perfectly by any two-bit scheme.
    - [Loop] branches are taken [trip - 1] times then fall through;
      predictors miss roughly once per loop exit.
    - [Pattern] branches repeat a fixed direction sequence; gShare
      learns them when the pattern fits in its history.
    - [Chaotic] branches flip an independent coin each execution and
      are unlearnable: a chaotic branch taken with probability p costs
      about min(p, 1-p) mispredictions per execution. *)

type kind =
  | Biased of float  (** taken with this fixed probability *)
  | Loop of int  (** back-edge of a loop with this trip count (>= 1) *)
  | Pattern of bool array  (** periodic direction sequence (non-empty) *)
  | Chaotic of float  (** independent coin with this taken probability *)

type t
(** Mutable behaviour state. *)

val create : seed_rng:Fom_util.Rng.t -> kind -> t
(** Fresh behaviour; stochastic kinds draw from a dedicated split of
    [seed_rng]. *)

val next : t -> bool
(** Next resolved direction. *)
