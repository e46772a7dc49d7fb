(** [hypartition lint], end to end: one walk and one [lint.config]
    parse ({!Lint.Engine.load}), the DOM rules over the typed [.cmt]
    front of [lib/] and [bin/], and one suppression pass and
    report over the SRC and DOM findings together
    ({!Lint.Engine.lint_sources}). *)

val catalogue : (string * string) list
(** Every rule [lint] enforces, [SRC00]..[SRC12] then the DOM rules —
    what [lint --rules] prints and the report evaluates. *)

type result = {
  lint : Lint.Engine.result;  (** the one report, SRC and DOM findings *)
  effects : Effects.t;  (** the interprocedural effect analysis *)
}

val run :
  ?config_path:string ->
  ?entries:(string * string) list ->
  ?build_dir:string ->
  root:string ->
  unit ->
  (result, string) Stdlib.result
(** Lint [root]: SRC rules over every source, DOM rules over every unit
    a [.cmt] under [build_dir] (default [root/_build/default]) covers.
    A [lib/] or [bin/] implementation no [.cmt] covers is a DOM00
    error.  [entries] defaults to {!Callgraph.default_entries}.  When
    [root/analysis/effects.json] exists, DOM11 checks it against this
    run. *)
