(** Data-TLB model.

    The paper's future-work list (Section 7) notes that TLB misses
    act much like long data-cache misses: the walk blocks retirement
    and its penalty adds as another miss-event class. This module
    provides the substrate — a fully-associative LRU translation
    cache over pages; the walk latency lives in the spec so the
    simulator, the profiler and the model agree on it. *)

type spec = {
  entries : int;  (** translations held (power of two) *)
  page_bits : int;  (** log2 of the page size *)
  walk_latency : int;  (** page-table walk delay in cycles *)
}

val diagnostics : spec -> Fom_check.Diagnostic.t list
(** [FOM-M011] diagnostics for a malformed spec. *)

type t

val create : spec -> t
val spec : t -> spec

val access : t -> int -> bool
(** [access t addr] translates; [false] means a TLB miss (the entry is
    filled, evicting the LRU translation). *)
