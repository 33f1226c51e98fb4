(* Each val's fate under FOM-L008 is in its name. *)

val used : int -> int
val aliased : int -> int
val opened : int -> int
val internal : int -> int
val unused : int
val test_only : int
val kept : int

module Inner : sig
  val counted : int
  val dead : int
end
