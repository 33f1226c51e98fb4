(** Functional-unit counts per operation class.

    The paper's machine has unbounded functional units; its Section 7
    lists limited FU counts as the first modeling extension — the mix
    determines the number of units needed to sustain the steady-state
    issue rate, or conversely a small unit count lowers the saturation
    level below the issue width. This type carries per-class counts
    for both the detailed simulator and the model extension. Units are
    fully pipelined: a unit accepts one instruction per cycle. *)

type t

val unbounded : t
(** No structural limits (the paper's baseline machine). *)

val make :
  ?alu:int -> ?mul:int -> ?div:int -> ?load:int -> ?store:int ->
  ?branch:int -> ?jump:int -> unit -> t
(** Build with limits for the given classes; omitted classes stay
    unbounded. All counts must be at least 1. *)

val diagnostics : t -> Fom_check.Diagnostic.t list
(** [FOM-M013] diagnostics for unit counts below one. *)

val of_class : t -> Opclass.t -> int
(** Units available for a class; [max_int] when unbounded. *)
