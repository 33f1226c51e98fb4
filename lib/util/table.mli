(** Plain-text table rendering for the experiment harness.

    The bench executable prints each reproduced table/figure as an
    aligned text table, so the output can be compared line-by-line
    with the paper's exhibits. *)

val print : header:string list -> string list list -> unit
(** [print ~header rows] prints a table with column widths fitted to
    the content, the first column left-aligned and the rest
    right-aligned, under a rule of dashes. Rows shorter than the
    header are padded with empty cells. *)

val float_cell : ?decimals:int -> float -> string
(** Format a float with a fixed number of decimals (default 3). *)

val heading : string -> string
(** Render a section heading with an underline, for harness output. *)
