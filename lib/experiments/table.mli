(** Plain-text table rendering shared by all experiments: fixed-width
    columns, a header rule, and a caption line tying the table back to
    the paper anchor it reproduces.

    This module is the experiment harness's designated stdout writer —
    the lint.config SRC03 allowlist names this directory for exactly
    that reason. *)

type cell = Int of int | Float of float | Str of string | Bool of bool

val print :
  title:string -> anchor:string -> columns:string list -> cell list list -> unit
(** Render one table to stdout: a [== title] heading, the paper
    [anchor] line, then the rows under a header rule. *)

val note : ('a, out_channel, unit) format -> 'a
(** An indented free-form caption line under a table. *)
