(** Extensible flat buffer of ints.

    An amortized-O(1) [push] onto a doubling [int array] — the
    allocation-free replacement for accumulating a reversed [int list]
    in recording loops (one machine word per element, no per-element
    boxing, no final [List.rev]). *)

type t

val create : ?capacity:int -> unit -> t
(** Empty buffer; [capacity] (default 64, must be positive) sizes the
    initial backing array. *)

val length : t -> int

val push : t -> int -> unit
(** Append, growing the backing array by doubling when full. *)

val get : t -> int -> int
(** [get t i] is element [i] (0-based); raises
    {!Fom_check.Checker.Invalid} ([FOM-U003]) out of bounds. *)

val contents : t -> int array
(** The elements in push order, as a fresh exactly-sized array. *)
