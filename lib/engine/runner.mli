(** Worker-side job execution.

    [execute] materializes the instance (load, generate, or experiment
    lookup), runs the work with observability collection on, audits the
    result with the lib/analysis auditors, and packages the outcome as a
    {!Record.payload}.  Deterministic failures (unreadable input,
    infeasible instance, audit violation) come back as [`Failed] — only
    process death is a crash, and only the {!Spec.Crash} drill dies on
    purpose. *)

val execute :
  ?lookup:(string -> Hypergraph.t option) ->
  ?threads:int ->
  Spec.job ->
  Record.payload
(** Run one job in the current process.  Intended to be passed as the
    [worker] of {!Pool.run}; safe to call in-process for tests (except
    on {!Spec.Crash}, which exits).

    [?lookup] resolves an {!Spec.Hmetis_file} path to an already-parsed
    hypergraph before any file I/O — the serve daemon's hot-instance LRU,
    visible to forked workers through copy-on-write.  A [None] falls back
    to loading the file.

    [?threads] (default 0) is {!Solvers.Multilevel.config.threads} for
    multilevel jobs; other jobs ignore it.  It bounds the run without
    changing its result, so the payload is a pure function of the
    plan. *)

val solve :
  Spec.config ->
  threads:int ->
  seed:int ->
  Hypergraph.t ->
  (Partition.t, string) result
(** The solver dispatch behind every partition job and the [partition]
    verb: run [config]'s algorithm with a fresh rng from [seed].  An
    [Error] when k exceeds the node count ({!Spec.validate_k}), the exact
    solver is given more than 24 nodes, or no ε-balanced partition
    exists. *)
