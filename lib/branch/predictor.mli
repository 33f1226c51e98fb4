(** Conditional-branch direction predictors.

    The paper's machine uses an 8K-entry gShare predictor; ideal and
    simpler predictors are provided for the idealized simulation
    configurations and for baselines. Only conditional branches are
    predicted — unconditional control is direct in the synthetic ISA
    and never mispredicts, matching the paper's focus.

    A predictor is consulted and trained through {!observe}, which
    returns whether the prediction was correct; the detailed simulator
    and the functional profiler therefore see identical predictor
    state evolution for the same trace. *)

type spec =
  | Ideal  (** always correct *)
  | Always_taken
  | Bimodal of int  (** log2 of the two-bit counter table size *)
  | Gshare of int  (** log2 of table size; history length matches *)

val default_spec : spec
(** The paper's 8K-entry gShare: [Gshare 13]. *)

val diagnostics : spec -> Fom_check.Diagnostic.t list
(** [FOM-M014] diagnostics for out-of-range table sizes. *)

type t

val create : spec -> t

val observe : t -> pc:int -> taken:bool -> bool
(** Predict the direction of the branch at [pc], then update the
    tables and history with the resolved direction [taken]; returns
    [true] when the prediction was correct. The predictor keeps no
    counts: callers tally the results. *)
