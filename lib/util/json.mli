(** Minimal JSON emission and parsing (no dependencies).

    Just enough to write machine-readable artifacts — the bench
    harness's timing baseline ([BENCH_baseline.json], CI's
    [bench.json]) — with stable, diff-friendly output (object fields
    print in the order given, arrays in order, numbers through one
    fixed format), and to read those same artifacts back for
    regression gating. The parser accepts standard RFC 8259 documents
    with one lossy corner: [\u] escapes beyond ASCII decode to [?]
    (emission never produces them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render with the given indent width (default 2; [0] means one
    line). Strings are escaped per RFC 8259; non-finite floats render
    as [null] (JSON has no representation for them). *)

val write_file : path:string -> t -> unit
(** [write_file ~path v] writes [to_string v] and a trailing newline
    atomically enough for CI artifacts (plain create-truncate). *)

val of_string : string -> t
(** Parse one JSON document.
    @raise Fom_check.Checker.Invalid with a [FOM-U004] diagnostic
    (whose path carries the byte offset) on malformed input. *)

val of_file : path:string -> t
(** {!of_string} over a whole file.
    @raise Fom_check.Checker.Invalid with a [FOM-U005] diagnostic on
    the path when the file cannot be read. *)

val member : string -> t -> t option
(** [member key v] is the field [key] of an [Obj] ([None] for a
    missing field or a non-object). *)

val number : t -> float option
(** The numeric value of an [Int] or [Float] node. *)
