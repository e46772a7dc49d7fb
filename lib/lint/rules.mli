(** The hyplint rule set: syntactic checks over the OCaml Parsetree.

    Each rule id is stable ([SRC01]..[SRC12], with [SRC00] reserved for
    lint hygiene itself) and documented in the {!catalogue}; findings
    carry the exact [file:line] so suppression markers and fixture tests
    can target them. *)

type finding = {
  rule : string;  (** stable rule id, e.g. ["SRC01"] *)
  severity : Analysis_core.Check.severity;
  file : string;  (** root-relative path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  message : string;
}

val catalogue : (string * string) list
(** [rule id, one-line rationale] for every rule, [SRC00]..[SRC12]. *)

val since : string -> string
(** The PR that introduced a rule id (["PR3"]..["PR9"]), for the
    catalogue's version-pinning column.  Total: covers the [DOM] ids
    too, since [lint --rules] prints both rule sets. *)

val render_catalogue : (string * string) list -> string
(** Render a rule catalogue the way [lint --rules] prints it — one
    [id  since  rationale] line per rule, generated from the id list the
    verb actually enforces. *)

val scan : path:string -> Parsetree.structure -> finding list
(** Run the expression-level rules (SRC01..SRC06, SRC08..SRC12) over one
    parsed implementation.  [path] is root-relative and decides whether
    SRC03 applies (it only covers [lib/]), whether SRC08 is exempt (only
    [lib/engine/] may manage processes), whether SRC09 applies (the
    hot-path modules under [lib/solvers/] and [lib/hypergraph/]) and
    whether SRC10 is exempt ([lib/obs/]).  SRC11 and SRC12 fire
    everywhere; their designated concurrency and networking modules are
    allowlisted in [lint.config].  Findings come back in source order. *)

val iterish_name : string -> bool
(** Whether the last component of a dotted value path names a
    callback-taking iteration function ([iter], [map], [fold_left], …,
    or any [iter_*] / [fold_*] walker), whose function-literal argument
    runs once per element: a loop body for the loop rules here and for
    the typed DOM04. *)

val reexport_only : Parsetree.structure -> bool
(** Whether a compilation unit consists solely of [module X = Path] /
    [include Path] items — the pure re-export library roots that SRC07
    exempts from the [.mli] requirement. *)

val compare_findings : finding -> finding -> int
(** Order findings by file, line, column, then rule id. *)
