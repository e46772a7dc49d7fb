(** Analytics over JSONL span traces (schema hypartition-trace/2):
    per-phase wall/self-time tables, per-job critical paths, top spans,
    GC summaries, and folded-stack (flamegraph) output.  Re-exported as
    [Obs.Report]; the [hypartition report] subcommand is a thin wrapper
    over it. *)

type phase_row = {
  ph_path : string;  (** "/"-joined span path from the root *)
  ph_count : int;
  ph_total_ns : int64;  (** wall time including children *)
  ph_self_ns : int64;  (** wall time excluding children, clamped at 0 *)
}

type t

val load : string -> (t, string) result
(** Read a JSONL trace file: its meta record must carry the trace/2
    schema tag. *)

val load_string : string -> (t, string) result
(** Same over in-memory content. *)

val schema : t -> string

val phase_rows : t -> phase_row list
(** Per-phase aggregation sorted by path. *)

val folded : t -> string
(** Folded-stack lines ["a;b;c <self-ns>\n"], one per phase with positive
    self time — the input format of standard flamegraph tooling. *)

val structure : t -> string
(** Canonical rendering of the span forest modulo span ids and
    timestamps: names plus trace ids, children sorted canonically.  Two
    runs of the same deterministic workload compare equal regardless of
    worker count or interleaving. *)

val render : ?top:int -> Format.formatter -> t -> unit
(** The human-readable report: provenance, per-phase table, critical path
    per job, top-[top] spans (default 10), GC gauges. *)
