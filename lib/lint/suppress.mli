(** Suppression sources for hyplint findings: inline
    [(* hyplint: allow SRC03 — reason *)] markers and the repo-level
    [lint.config] allowlist.  Every suppression carries a written reason;
    reason-less markers do not suppress and are surfaced by the engine as
    SRC00 violations. *)

(** {1 Inline markers} *)

type inline = {
  i_line : int;  (** line the marker sits on *)
  i_rules : string list;  (** rule ids it silences *)
  i_reason : string;
  mutable i_used : bool;  (** set when a finding matched the marker *)
}

type inline_scan = {
  markers : inline list;
  malformed : (int * string) list;
      (** markers that failed to parse or lacked a reason: line, problem *)
}

val scan_inline : string -> inline_scan
(** Scan a source file's text for markers, line by line. *)

val inline_match : inline_scan -> rule:string -> line:int -> inline option
(** The marker (if any) that suppresses [rule] at [line]: a marker
    applies to its own line and to the following line. *)

(** {1 lint.config allowlist} *)

type entry = {
  e_rules : string list;
  e_pattern : string;
      (** exact path, [dir] prefix, or a single leading/trailing [*] glob *)
  e_reason : string;
  mutable e_used : bool;
}

type config = entry list

val parse_config : string -> config * (int * string) list
(** Parse [lint.config] text into entries plus per-line errors. *)

val config_match : config -> rule:string -> path:string -> entry option
