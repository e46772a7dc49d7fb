(** Run provenance: hostname, OCaml version, word size, git revision and
    (optionally) worker and solver-thread counts — stamped into trace
    headers so cross-machine comparisons are self-describing. *)

val git_rev : unit -> string
(** Short git revision of the working tree, or ["unknown"] outside a
    repository. *)

val collect : ?jobs:int -> ?threads:int -> unit -> (string * Obs.Json.t) list
(** The provenance fields, ready for {!Obs.emit_provenance} or embedding
    in a JSON report.  [jobs] = fork-pool worker count, [threads] =
    solver domains per worker. *)
