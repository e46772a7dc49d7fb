(** hyplint — the AST-level half of [hypartition lint].

    A compiler-libs pass ([Parse] + [Ast_iterator]) over every [.ml] /
    [.mli] under [lib/], [bin/] and [test/], with repo-specific
    rules (stable ids [SRC00]..[SRC12], catalogued in DESIGN.md), inline
    [(* hyplint: allow ... — reason *)] suppressions and a [lint.config]
    allowlist that also cover the typed DOM rules of {!Analysis_dom}.
    The repo gates on zero unsuppressed findings. *)

module Rules = Rules
module Suppress = Suppress
module Engine = Engine

val catalogue : (string * string) list
(** [rule id, rationale] for the SRC rules. *)
