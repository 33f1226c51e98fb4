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

(* FOM-L010: no caller sets ?knob; bin/ sets ?depth. It passes
   ~turns only to a function of its own and ~inner only inside the
   bracketed argument of nested, so neither counts; ~factor through
   the alias W counts. *)
val tuned : ?knob:int -> ?depth:int -> unit -> int
val spun : ?turns:int -> unit -> int
val nested : ?inner:int -> int -> int
val scaled : ?factor:int -> int -> int

(* A val named like a type counts only where it is applied: bin/
   applies [level], but names [gauge] only as a type. *)
type level
val level : int -> level
type gauge
val gauge : int -> gauge
