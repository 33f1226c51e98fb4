(** Plain-text table rendering for the experiment harness.

    The bench executable prints each reproduced table/figure as an
    aligned text table, so the output can be compared line-by-line
    with the paper's exhibits. *)

type align = Left | Right

val render : ?align:align list -> header:string list -> string list list -> string
(** [render ~header rows] lays out a table with column widths fitted to
    the content. The default alignment is [Left] for the first column
    and [Right] for the rest. Rows shorter than the header are padded
    with empty cells. *)

val print : ?align:align list -> header:string list -> string list list -> unit
(** {!render} followed by [print_string]. *)

val float_cell : ?decimals:int -> float -> string
(** Format a float with a fixed number of decimals (default 3). *)

val heading : string -> string
(** Render a section heading with an underline, for harness output. *)
