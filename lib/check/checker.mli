(** Collect-all validation combinators.

    A checker rule is simply a [Diagnostic.t list]: empty when the
    value is well-formed, one entry per violation otherwise. Rules
    compose with {!all}, so a module's [check] function returns every
    problem in one pass:

    {[
      let check t =
        let module C = Fom_check.Checker in
        C.all
          [
            C.min_int ~code:"FOM-P001" ~path:"params.width" ~min:1 t.width;
            C.check ~code:"FOM-P004" ~path:"params.window_size"
              (t.window_size <= t.rob_size)
              "window must fit in the ROB";
          ]

      let validate t = Fom_check.Checker.run_exn (check t)
    ]}

    [validate] keeps the historical [t -> unit] shape but raises the
    structured {!Invalid} (carrying every error) instead of a bare
    [Assert_failure] — and, unlike [assert], survives [-noassert]. *)

exception Invalid of Diagnostic.t list
(** Raised by {!run_exn} and {!ensure} with the complete list of
    error-severity diagnostics. A printer is registered, so an
    uncaught [Invalid] renders the full report. *)

type rule = Diagnostic.t list
(** [[]] means the checked value passed. *)

val ok : rule

val all : rule list -> rule
(** Concatenation: every violation from every sub-rule. *)

val check : ?severity:Diagnostic.severity -> code:string -> path:string -> bool -> string -> rule
(** [check ~code ~path cond msg] is [ok] when [cond] holds. *)

val min_int : code:string -> path:string -> min:int -> int -> rule
val min_float : code:string -> path:string -> min:float -> float -> rule

val positive_float : code:string -> path:string -> float -> rule
(** Finite and strictly positive. *)

val fraction : code:string -> path:string -> float -> rule
(** Finite and within [[0, 1]] — a probability or a rate per
    instruction. *)

val positive_fraction : code:string -> path:string -> float -> rule
(** Finite and within [(0, 1]] (e.g. the IW exponent beta, a fit
    r-squared). *)

val sum_to_one :
  ?tol:float -> code:string -> path:string -> (string * float) list -> rule
(** [sum_to_one ~code ~path parts] checks the labelled fields sum to
    1 within [tol] (default [1e-6]). *)

val has_errors : rule -> bool

val run_exn : rule -> unit
(** Raise {!Invalid} with the error-severity diagnostics, if any.
    Warnings and hints never raise. *)

val ensure : ?severity:Diagnostic.severity -> code:string -> path:string -> bool -> string -> unit
(** Immediate single-condition precondition: raise {!Invalid} with
    one diagnostic when the condition fails. For hot construction
    paths pass a static message string — nothing allocates when the
    condition holds. *)

val internal_error : string -> 'a
(** Report a violated internal invariant (code [FOM-X001]) — the
    replacement for [assert false] on unreachable paths. *)

val pp_report : Format.formatter -> rule -> unit
(** Every diagnostic (sorted by severity, then path) one per line,
    followed by a summary count line, e.g. ["2 errors, 1 warning"] or
    ["no diagnostics"]. *)
