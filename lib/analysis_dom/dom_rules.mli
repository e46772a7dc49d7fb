(** The domain-safety rules, DOM00..DOM11 (DOM10 retired with the
    Parsetree front).

    DOM00 (analyzer hygiene) and DOM11 (stale certificate) are emitted
    by the driver and the stale-marker pass; DOM01..DOM09 are evaluated
    here over the typed units, hot-path reachability and the
    interprocedural effect analysis.  Findings reuse
    {!Lint.Rules.finding}, so hyplint's suppression machinery and report
    ordering apply unchanged. *)

val catalogue : (string * string) list
(** [rule id, one-line rationale], [DOM00]..[DOM11] without [DOM10]. *)

val evaluate :
  cg:Callgraph.t -> effects:Effects.t -> Front_typed.unit_ir list ->
  Lint.Rules.finding list
(** All DOM01..DOM09 findings over the given units, sorted by
    [file, line, col, rule]. *)
