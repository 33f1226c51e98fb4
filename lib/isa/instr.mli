(** Dynamic instructions.

    A trace is a sequence of these records in program (commit) order.
    [deps] names each instruction's true producers; [mem] carries the
    effective address of memory operations; [ctrl] carries the resolved
    direction and target of control operations so that predictors and
    the timing simulator can replay them. *)

type ctrl = {
  target : int;  (** byte address of the taken-path successor *)
  taken : bool;  (** resolved direction (always true for jumps) *)
}

type t = {
  index : int;  (** dynamic sequence number, from 0 *)
  pc : int;  (** byte address of the static instruction *)
  opclass : Opclass.t;
  deps : int array;  (** dynamic indices of true (RAW) producers *)
  mem : int option;  (** effective byte address for loads/stores *)
  ctrl : ctrl option;  (** direction info for branches/jumps *)
}
(** [deps] is the only operand information: the modeled processor
    renames registers, so only true dependences constrain issue, and
    an instruction carries no register names. *)

val make :
  index:int -> pc:int -> opclass:Opclass.t -> ?deps:int array -> ?mem:int ->
  ?ctrl:ctrl -> unit -> t
(** Smart constructor; checks structural well-formedness (memory ops
    carry [mem], control ops carry [ctrl], all dependence indices
    strictly less than [index]) and raises
    {!Fom_check.Checker.Invalid} with a [FOM-T120] diagnostic on
    violation. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering for debugging. *)
