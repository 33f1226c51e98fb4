(** Descriptive statistics over float samples. *)

val mean : float array -> float
(** Arithmetic mean; 0 on an empty array. *)

val max : float array -> float
(** Largest sample. Requires a non-empty array. *)

module Acc : sig
  (** Streaming mean in O(1) memory; an update allocates nothing. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float
end
