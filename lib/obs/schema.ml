(* The observability schema tag, in one place so the writer (Obs), the
   reader (Report) and the validator (`hypartition trace`) cannot drift
   apart.  trace/2 carries cross-process context: optional provenance
   records, a per-span "trace" id (the fingerprint of the engine job the
   span came from), and shard meta headers ("trace"/"parent_span"/"pid")
   on the per-worker files that are merged into the final timeline. *)

let trace_v2 = "hypartition-trace/2"
