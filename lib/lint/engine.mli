(** The shared half of [hypartition lint]: one walk of the tree, one
    [lint.config] parse, the SRC rules over the Parsetree, and one
    suppression and stale-marker pass over the SRC findings together
    with the DOM findings the typed pass ({!Analysis_dom.Driver}) hands
    in — reported through the same {!Check} vocabulary as the invariant
    auditors. *)

val schema_version : string
(** Schema tag of the [--format json] output, ["hypartition-lint/2"]. *)

val default_subdirs : string list
(** Directories walked under the root: [lib], [bin], [test]. *)

type result = {
  root : string;
  files : int;  (** compilation units scanned *)
  units : int;  (** typed units the DOM rules analyzed *)
  findings : Rules.finding list;  (** live (unsuppressed), sorted *)
  suppressed : (Rules.finding * string) list;  (** finding, written reason *)
}

val lint_sources :
  ?config:Suppress.config ->
  ?config_errors:(int * string) list ->
  ?units:int ->
  ?dom:Rules.finding list ->
  root:string ->
  (string * string) list ->
  result
(** The filesystem-free pipeline over (root-relative path, content)
    pairs — what the SRC fixture tests drive.  Runs the per-file rules
    and the cross-file SRC07 interface check, adds the typed pass's raw
    [dom] findings (over [units] units), then applies inline markers and
    the allowlist to all of them.  Malformed markers and [config_errors]
    surface as SRC00; a marker that matched nothing is a stale-marker
    warning, DOM00 when it names only DOM rules and SRC00 otherwise. *)

type tree = {
  config : Suppress.config;
  config_errors : (int * string) list;
  sources : (string * string) list;
      (** root-relative path and content of every [.ml]/[.mli], sorted *)
}

val load :
  ?config_path:string -> root:string -> unit -> (tree, string) Stdlib.result
(** Walk [root]'s {!default_subdirs} and read [lint.config] from
    [config_path] (default: [root/lint.config] when present). *)

val report :
  ?catalogue:(string * string) list -> result -> Analysis_core.Check.report
(** One evaluation per [catalogue] rule (default: the SRC catalogue)
    plus one violation per live finding; [Check.exit_code] of this
    report is the lint gate. *)

val to_json : result -> Obs.Json.t
(** The versioned machine-readable report ({!schema_version}). *)
