(** Two-level cache hierarchy: split L1 I/D over a unified L2.

    Classifies each access by the level that serves it — exactly the
    paper's taxonomy. For data: an L1 hit is free, an L1-miss/L2-hit is
    a *short miss* (serviced like a long-latency functional unit), an
    L2 miss is a *long miss* (stalls retirement via the full ROB). For
    instructions: an L1I miss stalls fetch for the L2 latency, an L2
    miss for the memory latency.

    Every level can be idealized independently, which yields the five
    simulation configurations of the paper's Figure 2 experiment and
    the single-level 128 KiB setup of Figure 14. *)

type outcome =
  | L1_hit
  | L2_hit  (** data: a short miss *)
  | Memory  (** data: a long miss *)

type level = Ideal  (** never misses *) | Real of Geometry.t

type l2_level =
  | Ideal_l2  (** every L1 miss hits L2 (short) *)
  | Real_l2 of Geometry.t
  | No_l2  (** every L1 miss goes to memory (long) *)

type latencies = {
  l1 : int;  (** load-use latency on an L1 hit *)
  l2 : int;  (** delay to fill from L2 (paper: 8) *)
  memory : int;  (** delay to fill from memory (paper: 200) *)
}

type config = {
  l1i : level;
  l1d : level;
  l2 : l2_level;
  latencies : latencies;
}

val baseline : config
(** The paper's baseline: real 4 KiB 4-way L1s, real 512 KiB 4-way L2,
    latencies 1 / 8 / 200. *)

val all_ideal : config
(** Both L1s ideal (the L2 is never consulted). *)

val ideal_except_l1i : config
(** Only the instruction cache is real (Figure 2 configuration 4 and
    the Figure 11 experiment). *)

val ideal_except_data : config
(** Only the data side is real (Figure 2 configuration 5). *)

val fig14 : config
(** Figure 14's setup: a 128 KiB L1D with no L2 (every miss is long,
    200 cycles); instruction side ideal. *)

val inst_line_mask : config -> int
(** [pc land inst_line_mask config] is the address of the L1I line
    holding [pc]; an ideal L1I counts 128-byte lines, the baseline's.
    A fetch probes the L1I once per change of line. *)

val diagnostics : config -> Fom_check.Diagnostic.t list
(** [FOM-M010]/[FOM-M015] diagnostics: geometry of each real level and
    the L1 <= L2 <= memory latency ordering. *)

type t

val create : config -> t

val access_inst : t -> int -> outcome
(** Probe/fill the instruction path with a line address. *)

val access_data : t -> int -> outcome
(** Probe/fill the data path with a byte address. The hierarchy keeps
    no counts: each caller counts the outcomes these return. *)

val data_latency : t -> outcome -> int
(** Load-use latency for a data access with the given outcome. *)

val inst_stall : t -> outcome -> int
(** Extra fetch-stall cycles for an instruction access: 0 for an L1
    hit, [l2] for an L2 hit, [memory] for an L2 miss. *)
