(** Empirical discrete distributions over small non-negative integers.

    Used for the paper's long data-cache-miss group-size distribution
    [f_LDM(i)] (Section 4.3, eq. 8) and for misprediction burst sizes. *)

type t
(** A frequency table over integer outcomes. *)

val create : unit -> t
(** Empty distribution. *)

val add : t -> int -> unit
(** [add t k] records one observation of outcome [k]. Requires [k >= 0]. *)

val total : t -> int
(** Number of recorded observations. *)

val support : t -> int list
(** Outcomes with non-zero count, in increasing order. *)

val mean : t -> float
(** Empirical mean outcome. *)

val expect : t -> (int -> float) -> float
(** [expect t f] is the empirical expectation of [f]. In the paper's
    eq. 8 this is used with [f i = 1 / i] over miss-group sizes. *)

val of_list : (int * int) list -> t
(** Build from (outcome, count) pairs. *)

val to_list : t -> (int * int) list
(** Dump (outcome, count) pairs in increasing outcome order. *)
