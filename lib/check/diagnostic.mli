(** Structured diagnostics.

    Every validation failure in this repository is reported as a
    [Diagnostic.t]: a stable error code, a severity, a context path
    naming the offending field (e.g. [params.window_size] or
    [trace.txt:12]), and a human-readable message. Checkers collect
    *all* diagnostics for a value instead of aborting on the first,
    so a user fixing a configuration sees every problem at once.

    Code namespaces (documented in the README):
    - [FOM-Pxxx] — model parameters ({!Fom_model.Params})
    - [FOM-Ixxx] — model inputs and analysis requests
      ({!Fom_model.Inputs}, {!Fom_analysis})
    - [FOM-Txxx] — trace and workload configuration
      ({!Fom_trace}: configs, behaviours, phases, trace files)
    - [FOM-Mxxx] — machine description ({!Fom_uarch.Config}, caches,
      predictor, latencies, functional units; [FOM-M009]: clusters and
      FU limits need an ideal L1D and no dTLB)
    - [FOM-Uxxx] — utility-function domain errors ({!Fom_util})
    - [FOM-Lxxx] — source lint findings ([tools/lint])
    - [FOM-Exxx] — parallel execution ([Fom_exec]: worker counts,
      task failures, pool lifecycle)
    - [FOM-Oxxx] — observability ([Fom_obs]: span buffers)
    - [FOM-X001] — internal invariant violation (a bug, not bad input) *)

type severity = Error | Warning | Hint

type t = {
  code : string;  (** stable code, e.g. ["FOM-P004"] *)
  severity : severity;
  path : string;  (** context path, e.g. ["params.window_size"] *)
  message : string;
}

val make : ?severity:severity -> code:string -> path:string -> string -> t
(** [make ~code ~path message] is an [Error] diagnostic unless
    [?severity] says otherwise. *)

val is_error : t -> bool

val compare : t -> t -> int
(** Orders by decreasing severity, then path, then code — the order
    reports are printed in. *)

val to_string : t -> string
(** One line: [error[FOM-P004] params.window_size: message]. *)

val pp : Format.formatter -> t -> unit
