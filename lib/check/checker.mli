(** Collect-all validation combinators.

    A checker rule is simply a [Diagnostic.t list]: empty when the
    value is well-formed, one entry per violation otherwise. Rules
    compose with [@], so a module's [check] function returns every
    problem in one pass.

    A passing rule allocates nothing, so a validator on a per-call
    path costs only its comparisons when the value is valid: {!ok} is
    [[]], [r1 @ r2] returns [r2] unchanged when [r1] is [[]], and
    every combinator below builds its message only when its condition
    fails. The arguments of a combinator are evaluated either way, so
    they must already exist: literals, fields, variables. A message
    that needs formatting is built under {!fail} in the failing
    branch of an [if], and a path prefix that varies goes through
    {!within}:

    {[
      let check t =
        let module C = Fom_check.Checker in
        C.min_int ~code:"FOM-P001" ~path:"params.width" ~min:1 t.width
        @ C.check ~code:"FOM-P003" ~path:"params.window_size" (t.window_size >= 1)
            "window must hold an instruction"
        @ (if t.window_size <= t.rob_size then C.ok
           else
             C.fail ~code:"FOM-P004" ~path:"params.window_size"
               (Printf.sprintf "window_size (%d) must not exceed rob_size (%d)"
                  t.window_size t.rob_size))

      let validate t = Fom_check.Checker.run_exn (check t)
    ]}

    The source lint's FOM-L009 flags a [Printf.sprintf] or [^] written
    as an argument of a combinator other than {!fail}. A list literal
    allocates its cells too, so {!all} is for rule lists that are
    built anyway, such as one rule per element of a list.

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

val fail : ?severity:Diagnostic.severity -> code:string -> path:string -> string -> rule
(** The one diagnostic of a rule whose condition has already failed:
    [if cond then ok else fail ~code ~path msg]. *)

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

val sum_to_one : code:string -> path:string -> (string * float) list -> rule
(** [sum_to_one ~code ~path parts] checks the labelled fields sum to
    1 within [1e-6]. *)

val within : string -> rule -> rule
(** [within prefix rule] prepends [prefix] to the path of each of
    [rule]'s diagnostics, e.g. [within "cache.l1i" (min_int ~path:".size" ...)]
    reports at [cache.l1i.size]. The paths are joined only when
    [rule] reports something. *)

val has_errors : rule -> bool

val run_exn : rule -> unit
(** Raise {!Invalid} with the error-severity diagnostics, if any.
    Warnings and hints never raise. *)

val ensure : code:string -> path:string -> bool -> string -> unit
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
