(** Cache geometry: capacity, associativity, line size.

    The paper's baseline uses 4 KiB 4-way L1 caches and a unified
    512 KiB 4-way L2, all with 128-byte lines. *)

type t = {
  size : int;  (** capacity in bytes *)
  assoc : int;  (** ways per set *)
  line : int;  (** line size in bytes (a power of two) *)
}

val make : size:int -> assoc:int -> line:int -> t
(** Checks that [line] is a power of two, that [size] is divisible by
    [assoc * line], and that all fields are positive; raises
    {!Fom_check.Checker.Invalid} with [FOM-M010] diagnostics
    otherwise. *)

val diagnostics : ?path:string -> t -> Fom_check.Diagnostic.t list
(** Collect every [FOM-M010] violation, prefixing context paths with
    [path] (default ["cache.geometry"]). *)

val sets : t -> int
(** Number of sets. *)

val line_address : t -> int -> int
(** Byte address of the enclosing line. *)

val set_index : t -> int -> int
(** Set an address maps to. *)

val tag : t -> int -> int
(** Tag bits of an address. *)

val l1_baseline : t
(** 4 KiB, 4-way, 128-byte lines (paper baseline L1I and L1D). *)

val l2_baseline : t
(** 512 KiB, 4-way, 128-byte lines (paper baseline unified L2). *)
