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

(* FOM-L010: no caller sets ?knob; bin/ sets ?depth. *)
val tuned : ?knob:int -> ?depth:int -> unit -> int

(* A val named like a type counts only where it is applied: bin/
   applies [level], but names [gauge] only as a type. *)
type level
val level : int -> level
type gauge
val gauge : int -> gauge
