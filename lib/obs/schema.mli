(** The trace/2 codec: one record type per line of a
    [hypartition-trace/2] file, its writer {!to_json} and its total
    reader {!of_json}.  The JSONL sink writes through it, and shard
    absorption, {!Report.load} and the [hypartition trace] verb read
    through it — re-exported as [Obs.Schema]. *)

val trace_v2 : string
(** ["hypartition-trace/2"]: span records with per-span trace ids,
    provenance records and worker-shard meta headers (merged
    timelines). *)

type attr = Str of string | Int of int | Float of float | Bool of bool
(** A span attribute value (re-exported as [Obs.attr]). *)

type span = {
  id : int;
  parent : int option;  (** [None] for roots *)
  name : string;
  path : string;  (** ["/"]-joined names from the root *)
  depth : int;  (** 0 for roots *)
  start_ns : int64;  (** monotonic clock *)
  dur_ns : int64;  (** never negative *)
  attrs : (string * attr) list;  (** in insertion order *)
  trace : string option;  (** trace id: the engine job fingerprint *)
}

type histogram_stat = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_last : float;
}

type record =
  | Meta of {
      trace : string option;
      parent_span : int option;
      pid : int option;
    }
      (** the first line; a worker shard's carries its trace id, the
          coordinator-side parent span and the worker pid *)
  | Span of span
  | Counter of { name : string; value : int }
  | Gauge of { name : string; value : float }
  | Histogram of { name : string; stat : histogram_stat }
  | Provenance of (string * Json.t) list
      (** host, toolchain and revision fields, without ["type"] *)

val to_json : record -> Json.t
(** One line of the file, with ["type"] first. *)

val of_json : Json.t -> (record, string) result
(** Total decoding: a missing or ill-typed field, an unknown record type,
    a meta line of another schema or clock, a negative [dur_ns] or a
    non-scalar attribute is an [Error] naming what is wrong.  [null]
    reads back as [nan] where a float is expected, since the writer
    renders non-finite floats as [null]. *)

val of_line : string -> (record, string) result
(** {!Json.parse} then {!of_json}. *)
