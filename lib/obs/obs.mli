(** Structured observability for the solver pipeline: monotonic-clock
    spans, counters / gauges / histograms, pluggable sinks, GC profiling,
    and — since trace/2 — cross-process trace context.

    Everything is a no-op until observability is switched on — either
    programmatically ({!set_enabled}, {!enable_trace}, {!enable_summary})
    or through the environment, read lazily on first use:

    - [HYPARTITION_TRACE=<path>] writes a JSONL span trace (schema
      {!trace_schema_version}) to [<path>], truncating any existing file
      — same semantics as {!enable_trace};
    - [HYPARTITION_OBS=summary] (also ["1"]/["on"]) prints an aggregated
      span tree and metric table to stderr at exit; [off] (the default)
      disables everything;
    - [HYPARTITION_PROF=on] (also ["1"]/["sample"]) records GC gauges at
      root-span boundaries.  Takes effect only while collection is
      enabled.

    When disabled, the instrumentation calls compiled into the hot paths
    (counter increments, span entry) reduce to a couple of loads and a
    branch and perform {e no allocation} — the FM inner loop can afford
    them (test: ["obs: disabled instrumentation does not allocate"]).

    Within a process the library is single-threaded by design, matching
    the solvers.  Across processes, forked workers write trace {e
    shards} ({!enable_trace_shard}) that the coordinator merges back
    into its own timeline with {!absorb_shard}. *)

(** {1 Attributes} *)

type attr = Schema.attr =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

(** {1 Lifecycle} *)

val enabled : unit -> bool
(** Whether any collection is active.  First call reads the environment.
    Always [false] on a non-main domain: the registries are single-domain
    state, so instrumentation reached from worker domains (the multilevel
    portfolio's FM tasks) is inert — batch per-domain measurements and
    commit them from the main domain at a join barrier (see
    {!Histogram.merge} and the Solvers.Fm_stats accumulator). *)

val set_enabled : bool -> unit
(** Turn metric / span collection on or off without attaching a sink
    (used by the engine's job runner, which reads {!snapshot} directly
    into each result record). *)

val enable_trace : string -> unit
(** Attach a JSONL trace sink writing to the given path (truncates) and
    enable collection.  The file is flushed and finalized by {!close},
    which is also registered with [at_exit]. *)

val enable_summary : unit -> unit
(** Print the aggregated span tree and metric table to stderr on
    {!close} (hence at exit), and enable collection. *)

val close : unit -> unit
(** Flush and detach all sinks, printing the summary if requested.
    Idempotent; registered with [at_exit] as soon as a sink exists. *)

val reset_for_tests : unit -> unit
(** Drop all state: sinks, the span stack, trace context, profiling and
    the enabled flag; metrics are zeroed (not dropped, so module-level
    handles stay interned — forked workers reset right after the fork).
    The environment is {e not} re-read. *)

(** {1 Cross-process trace context}

    The coordinator owns the trace file.  Each forked worker attaches a
    shard sink ([<trace>.worker.<pid>.jsonl]) whose meta header carries
    the trace id (the job fingerprint) and the coordinator-side parent
    span id; after the worker exits, the coordinator absorbs the shard:
    span ids are renumbered from the coordinator's counter, shard roots
    are re-parented under the (still open) parent span, and the worker's
    close-time metrics are folded into the coordinator's registries.
    Absorbing shards in job-index order makes the merged ids a function
    of the plan alone, independent of worker count. *)

val trace_file : unit -> string option
(** The path of the attached trace sink, if any — what a worker's shard
    path is derived from. *)

val current_span_id : unit -> int option
(** The id of the innermost open span (the parent to propagate). *)

val enable_trace_shard :
  trace_id:string -> ?parent_span:int -> pid:int -> string -> unit
(** [enable_trace_shard ~trace_id ?parent_span ~pid path] attaches a
    shard sink in a forked worker (truncates [path]) and enables
    collection.  [trace_id] stamps every span the worker emits;
    [parent_span] is the coordinator-side span the shard roots re-parent
    under at absorption.  Re-reads [HYPARTITION_PROF] (the worker reset
    wiped the lazy env init).  No [at_exit] hook is registered: workers
    exit with [Unix._exit], so the pool closes the sink explicitly. *)

(** {2 Manual (retroactive) spans}

    {!Span.with_} ties a span to dynamic extent, which cannot describe a
    single-threaded server interleaving many requests: request A's
    queue-wait overlaps request B's solve on one stack.  {!Manual.span}
    emits an already-finished span with explicit timing and explicit
    parentage — same sinks, same rollup, same trace/2 record shape — so
    the serve daemon can emit each request's tree (request → queue-wait
    → solve → respond) at respond time, when every duration is known. *)

module Manual : sig
  type handle
  (** An emitted span, usable as a parent for children and for
      {!absorb_shard}'s [?parent]. *)

  val span :
    ?trace:string ->
    ?parent:handle ->
    ?attrs:(string * attr) list ->
    name:string ->
    start_ns:int64 ->
    dur_ns:int64 ->
    unit ->
    handle option
  (** Emit one finished span.  Without [?parent] it is a root; [?trace]
      overrides the process trace id (the daemon stamps the request's
      job fingerprint).  Returns [None] when collection is disabled —
      children of [None] simply omit [?parent].  Emit parents before
      their children: ids are allocated at emission. *)
end

val absorb_shard : ?parent:Manual.handle -> string -> int
(** Merge one worker shard into the current process: emit its resolvable
    spans (renumbered, re-rooted, stamped with the shard's trace id) to
    the attached sinks and the rollup, and fold its counter / gauge /
    histogram lines into the registries.  Spans whose parent chain does
    not resolve within the shard — the enclosing spans of a killed
    worker never closed — are dropped, as are torn trailing lines.
    Returns the number of spans absorbed; a missing or empty shard
    absorbs 0.

    [?parent] re-roots the shard under a {!Manual} span instead of the
    shard's own fork-time parent: the serve daemon, which has no span
    open when it forks, hangs each worker shard under that request's
    retroactive [solve] span. *)

val emit_provenance : (string * Json.t) list -> unit
(** Write a [{"type":"provenance", ...}] record to every attached trace
    sink (no-op without sinks) — host, toolchain and revision metadata
    that makes cross-machine trace comparisons self-describing. *)

(** {1 Spans} *)

module Span : sig
  val with_ : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
  (** [with_ name f] runs [f] inside a span.  Spans nest: the dynamic
      extent defines the tree.  When disabled this is just [f ()]. *)

  val attr : string -> attr -> unit
  (** Attach an attribute to the innermost open span (no-op when
      disabled or outside any span). *)

  val timed : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a * float
  (** Like {!with_}, and additionally returns the elapsed wall-clock
      seconds (measured even when disabled) — the obs-aware replacement
      for the removed [Support.Util.time_it]. *)
end

(** {1 Metrics}

    Handles are interned by name: [make] twice with the same name yields
    the same underlying metric.  Create handles once (at module
    initialization) and update them from hot code. *)

module Counter : sig
  type t

  val make : string -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val make : string -> t
  val set : t -> float -> unit
end

module Histogram : sig
  type t

  val make : string -> t
  val observe : t -> float -> unit
  val observe_int : t -> int -> unit

  val merge :
    t -> count:int -> sum:float -> min:float -> max:float -> last:float -> unit
  (** Fold an already-aggregated batch into the histogram (the
      {!absorb_shard} merge, exposed for worker-domain accumulators that
      batch off-main and commit at a join barrier).  No-op when disabled
      or [count = 0]; commit batches in worker-index order to keep
      [last] deterministic. *)
end

(** {1 GC profiling}

    The repo's only sanctioned [Gc] surface (lint rule SRC10): solvers
    and the engine read allocation counters and record heap state through
    here, so profiling stays one coherent layer instead of ad-hoc
    [Gc.stat] calls.  {!Prof.sample} records the [Gc.quick_stat] fields
    as gauges ([gc.minor_collections], [gc.major_collections],
    [gc.compactions], [gc.heap_words], [gc.top_heap_words],
    [gc.minor_words], [gc.promoted_words], [gc.major_words]); it runs
    automatically when a root span closes and can be called at any other
    boundary worth a datapoint. *)

module Prof : sig
  val enabled : unit -> bool
  (** Whether profiling is armed ([HYPARTITION_PROF] or {!set_enabled}). *)

  val set_enabled : bool -> unit
  (** Arm or disarm profiling programmatically. *)

  val sample : unit -> unit
  (** Record the current [Gc.quick_stat] as gauges.  No-op unless both
      profiling and collection are enabled. *)

  val allocated_words : unit -> float
  (** Words allocated by this process so far (minor + major - promoted,
      from [Gc.counters]) — delta two calls to meter a region. *)
end

(** {1 Snapshots}

    The engine's job runner (into each result record's ["observed"]
    section) and the summary sink read collected data through a
    snapshot: metric values plus the span rollup (aggregated by path,
    i.e. the ["/"]-joined span names from the root). *)

type histogram_stat = Schema.histogram_stat = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_last : float;
}

type span_stat = {
  s_path : string;
  s_count : int;
  s_total_ns : int64;
  s_min_ns : int64;
  s_max_ns : int64;
}

type snapshot = {
  counters : (string * int) list;  (** non-zero counters, sorted by name *)
  gauges : (string * float) list;  (** gauges that were set, sorted *)
  histograms : (string * histogram_stat) list;  (** non-empty, sorted *)
  spans : span_stat list;  (** rollup rows sorted by path *)
}

val snapshot : unit -> snapshot

val reset_stats : unit -> unit
(** Zero all metrics and clear the span rollup, keeping sinks and the
    enabled flag — the engine's job runner calls this at the start of
    every job, so a record observes only its own job. *)

val trace_schema_version : string
(** The schema tag written in the first line of every JSONL trace,
    ["hypartition-trace/2"]: span records may carry a ["trace"] id (the
    engine job fingerprint), the stream may carry ["provenance"]
    records, and shard meta headers carry ["trace"] / ["parent_span"] /
    ["pid"].  {!Schema} is the codec for its lines. *)

(** {1 JSON}

    A deliberately small JSON value type, printer and parser — enough to
    emit traces, result records and reports and to parse them back for
    validation, without an external dependency. *)

module Json = Json

(** {1 The trace/2 codec}

    One record type per trace line with its writer and its total reader.
    The JSONL sink writes through it and {!absorb_shard} reads through
    it. *)

module Schema = Schema

(** {1 Analytics}

    {!Report.load} is the one strict reader of trace/2 files: every line
    decodes through {!Schema}, meta comes first, and the spans form a
    forest (parents present, depths and paths consistent, durations
    non-negative); its errors name the line or span.  The [hypartition
    trace] verb validates through it and [hypartition report] renders
    it — per-phase tables, critical paths, folded stacks — so the two
    verbs accept and reject the same files. *)

module Report = Report
