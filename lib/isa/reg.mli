(** Architectural register names.

    The synthetic ISA has a flat integer register file. Only true (RAW)
    dependences matter to the modeled machine — the paper's processor
    renames registers, so WAR/WAW hazards never constrain issue — and a
    register name is exactly a dependence tag. *)

type t = private int
(** A register index in [0, count - 1]. *)

val count : int
(** Number of architectural registers (32). *)

val of_int : int -> t
(** [of_int i] checks bounds. *)

val to_int : t -> int
(** Raw index. *)

val pp : Format.formatter -> t -> unit
(** Prints as [r<i>]. *)
