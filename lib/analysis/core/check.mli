(** Uniform checker framework for the invariant auditors.

    An audit evaluates named {e rules} against a subject and accumulates
    {e violations} into a structured {!report}.  Rule ids are stable
    strings (the catalogue in README.md maps each id to the paper
    definition or lemma it enforces), so callers can assert on the exact
    violation class rather than parse messages. *)

type severity = Error | Warning | Info

type violation = {
  rule : string;  (** stable rule id, e.g. ["HG-PIN-SORTED"] *)
  severity : severity;
  message : string;
}

type report = {
  subject : string;  (** what was audited, e.g. ["hypergraph n=5 m=3"] *)
  rules_run : int;  (** rule evaluations performed (passed or failed) *)
  violations : violation list;  (** in evaluation order *)
  timings : (string * float) list;
      (** seconds attributed to each rule id, in first-evaluation order.
          A rule's predicate is computed by the caller between consecutive
          {!rule} calls, so each entry is the wall-clock delta since the
          previous call, summed over re-evaluations of the same id. *)
}

(** {1 Accumulation} *)

type ctx
(** Mutable accumulator threaded through one audit. *)

val create : subject:string -> ctx

val rule :
  ctx -> ?severity:severity -> id:string -> bool -> (unit -> string) -> unit
(** [rule ctx ~id holds msg] records one evaluation of rule [id]; when
    [holds] is false the lazily-built [msg ()] becomes a violation
    ([severity] defaults to [Error]). *)

val violation : ctx -> ?severity:severity -> id:string -> string -> unit
(** Record a violation unconditionally (counts as one evaluation). *)

val report : ctx -> report

(** {1 Inspection} *)

val ok : report -> bool
(** No [Error]-severity violations ([Warning]/[Info] are allowed). *)

val clean : report -> bool
(** No violations of any severity. *)

val errors : report -> violation list
val violated_rules : report -> string list
(** Distinct rule ids with at least one violation, in evaluation order. *)

val has_violation : report -> string -> bool
(** Whether the given rule id was violated. *)

val merge : subject:string -> report list -> report
(** Combine sub-reports: evaluations and violations are summed, and each
    violation message is prefixed with its originating subject. *)

(** {1 Rendering} *)

val pp_severity : Format.formatter -> severity -> unit
val pp : Format.formatter -> report -> unit

(** [pp_timings] renders the per-rule timing table (the [check --stats]
    output). *)
val pp_timings : Format.formatter -> report -> unit
val to_string : report -> string

val exit_code : report -> int
(** 0 iff {!ok}, 1 otherwise — the [hypartition check] convention. *)
