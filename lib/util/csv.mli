(** Minimal CSV writing, for exporting harness tables.

    RFC-4180-style quoting: fields containing commas, quotes or
    newlines are quoted, with embedded quotes doubled. *)

val write_file : path:string -> header:string list -> string list list -> unit
(** Header plus rows, one newline-terminated record each, to a file,
    creating or truncating it. *)
