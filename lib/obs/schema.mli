(** The schema tag shared by the trace writer (Obs), the analytics reader
    (Report) and the [hypartition trace] validator. *)

val trace_v2 : string
(** ["hypartition-trace/2"]: span records with per-span trace ids,
    provenance records and worker-shard meta headers (merged
    timelines). *)
