(** Operation classes of the synthetic RISC-like ISA.

    The modeled machine has an unbounded number of functional units of
    each type (paper, Section 1), so an operation class only determines
    the execution latency and whether the instruction touches memory or
    redirects control. *)

type t =
  | Alu  (** single-cycle integer operation *)
  | Mul  (** integer multiply *)
  | Div  (** integer divide (long-latency) *)
  | Load  (** memory read; latency also depends on the data cache *)
  | Store  (** memory write *)
  | Branch  (** conditional branch *)
  | Jump  (** unconditional direct jump / call / return *)

val all : t list
(** Every class, in declaration order. *)

val count : int
(** [List.length all]; the size of a dense per-class table. *)

val to_int : t -> int
(** Dense tag in [[0, count)], following the declaration order of
    {!all}. Hot paths index per-class arrays with this instead of
    walking association lists. *)

val of_int : int -> t
(** Inverse of {!to_int}. Raises the internal [FOM-X001] diagnostic
    on an out-of-range tag. *)

val is_memory : t -> bool
(** Loads and stores. *)

val is_control : t -> bool
(** Branches and jumps. *)

val has_result : t -> bool
(** Produces a value later instructions can depend on: ALU, multiply,
    divide and load. *)

val to_string : t -> string
