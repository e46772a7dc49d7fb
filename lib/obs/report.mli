(** The strict loader for JSONL span traces (schema hypartition-trace/2)
    and the analytics over them: per-phase wall/self-time tables, per-job
    critical paths, top spans, GC summaries, and folded-stack
    (flamegraph) output.  Re-exported as [Obs.Report]; the [hypartition
    trace] verb validates through {!load} and [hypartition report] is a
    thin wrapper over it, so both accept and reject the same files. *)

type phase_row = {
  ph_path : string;  (** "/"-joined span path from the root *)
  ph_count : int;
  ph_total_ns : int64;  (** wall time including children *)
  ph_self_ns : int64;  (** wall time excluding children, clamped at 0 *)
}

type t = {
  spans : Schema.span list;  (** file order; a forest *)
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Schema.histogram_stat) list;
  provenance : (string * Json.t) list list;  (** one per record *)
}

val load : string -> (t, string) result
(** Read a JSONL trace file.  The first non-blank line is the trace/2
    meta record and no other line is; every non-blank line decodes
    through {!Schema.of_json}; span ids are unique; every parent is
    present, one level up ([depth] = parent's + 1), with the span's path
    under the parent's.  An [Error] names the offending line or span. *)

val load_string : string -> (t, string) result
(** Same over in-memory content. *)

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

val pp_ns : Format.formatter -> int64 -> unit
(** A duration in fixed width, scaled to s, ms, us or ns. *)

val render : ?top:int -> Format.formatter -> t -> unit
(** The human-readable report: provenance, per-phase table, critical path
    per job, top-[top] spans (default 10), GC gauges. *)
