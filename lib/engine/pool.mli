(** Fork-based worker pool: the engine's fault-isolation boundary.

    Each job runs in a forked worker process that reports a
    {!Record.payload} over a dedicated status pipe; the coordinator
    multiplexes pipes with [select], reaps workers without blocking,
    SIGKILLs any worker past its wall-clock budget, and retries crashed
    workers (bounded, exponential backoff).  A crashing, diverging or
    OOM-killed job therefore costs exactly one result, never the sweep.

    The coordinator is an explicit incremental state machine ({!t},
    {!create}, {!submit}, {!step}) so a long-lived caller — the
    [hypartition serve] daemon — can feed jobs as they arrive and keep
    its own accept loop responsive; {!step} multiplexes caller-supplied
    file descriptors (listening and client sockets) into the same
    [select].  The batch entry point {!run} is a loop over that machine.

    This module is the only place in the repository allowed to call
    [Unix.fork] / [Unix.waitpid] / [Unix.kill] (lint rule SRC08). *)

type config = {
  jobs : int;  (** worker slots (clamped to ≥ 1) *)
  retries : int;  (** extra attempts for {e crashed} workers; timeouts and
                      deterministic failures are never retried *)
  backoff_s : float;  (** base retry backoff; doubles per attempt *)
  default_timeout_s : float option;
      (** budget for jobs that carry none; [None] = unbounded *)
  silence_worker_stdout : bool;
      (** redirect worker stdout to /dev/null (the serve daemon, and
          [batch --format json], whose stdout is one report); workers
          keep stderr either way *)
  handle_sigint : bool;
      (** install a draining SIGINT handler for the duration of {!run}:
          queued jobs become [Skipped], in-flight workers finish, the
          cache stays consistent *)
  solver_threads : int;
      (** {!Solvers.Multilevel.config.threads} for every multilevel job a
          worker runs, stamped on record timing as provenance; [0] = no
          spawned domains.  It never changes a result.  The pool never
          creates domains itself — a forked worker's solve spawns them
          for one [Parallel.map] over the portfolio and joins them before
          that call returns, so domains never cross the fork boundary. *)
}

val default_config : config
(** 1 worker, 1 retry, 0.1 s backoff, no default timeout, inherited
    stdout, no signal handler, no solver domains. *)

type event =
  | Started of { index : int; job : Spec.job; worker : int; attempt : int }
  | Finished of { index : int; record : Record.t }
  | Retrying of { index : int; job : Spec.job; attempt : int; delay_s : float }
  | Interrupted of { pending : int }

(** {1 Incremental coordinator}

    One value of type {!t} owns the queue, the running workers and their
    trace shards.  All functions below are single-threaded and
    non-blocking except {!step}, which blocks for at most [timeout]. *)

type t

val create : config -> worker:(Spec.job -> Record.payload) -> t
(** A coordinator with no queued or running jobs.  [worker] runs {e in
    the forked child}; anything it raises becomes a [Failed] record
    (deterministic), while dying without completing the pipe protocol is
    a [Crashed] record (retried).  [create] installs no signal handler —
    a daemon owns its own signal discipline. *)

val submit : t -> index:int -> fingerprint:string -> Spec.job -> unit
(** Append a job plan to the queue.  [index] is the caller's correlation
    key, echoed in events, {!cancel} and {!step} results; callers must
    keep it unique among jobs not yet finished. *)

val cancel : t -> index:int -> bool
(** Remove a {e queued} job before it forks.  [true] iff a queued entry
    with [index] was removed; a job already running (or finished) is not
    affected and yields [false]. *)

val queued : t -> int
val in_flight : t -> int

val idle : t -> bool
(** No queued and no running jobs. *)

val stop_forking : t -> unit
(** Stop forking new workers; queued jobs stay queued (see
    {!skip_queued}), in-flight workers run to completion via {!step}.
    Crash retries are also disabled.  Used for drains. *)

val skip_queued :
  ?on_event:(event -> unit) ->
  reason:string ->
  t ->
  (int * Record.t) list
(** Turn every queued job into a [Skipped reason] record (returned and
    also delivered through the next {!step}); the queue becomes empty. *)

val step :
  ?on_event:(event -> unit) ->
  ?extra_fds:Unix.file_descr list ->
  timeout:float ->
  t ->
  (int * Record.t) list * Unix.file_descr list
(** One coordinator iteration: fork queued jobs into free slots, wait up
    to [timeout] seconds on worker status pipes {e and} [extra_fds],
    enforce deadlines, reap and classify exited workers.  Returns the
    records completed during this step (in completion order) and the
    subset of [extra_fds] that became readable.  [on_event] fires in the
    coordinator, in completion order.

    The wait drops to 1 ms while a worker has closed its pipe but not
    exited, since no descriptor signals the exit: a worker held after
    EOF is polled every 1 ms until it exits or its deadline kills it. *)

val take_shards : t -> (int * string) list
(** Drain the accumulated [(job index, worker trace shard path)] pairs,
    sorted by index, without absorbing them — for callers that absorb
    each shard under their own span (the serve daemon).  The caller owns
    deletion of the returned paths. *)

val absorb_shards : t -> unit
(** Absorb and delete all accumulated worker trace shards in job-index
    order, so merged span ids depend only on the plan, not scheduling. *)

val no_live_children : unit -> bool
(** [true] iff this process has no live or unreaped forked children — the
    orphan probe for drain tests.  (Here rather than in test code because
    it needs [Unix.waitpid]; see SRC08.) *)

(** {1 Batch entry point} *)

val run :
  ?on_event:(event -> unit) ->
  config ->
  worker:(Spec.job -> Record.payload) ->
  (int * string * Spec.job) list ->
  Record.t list
(** [run config ~worker jobs] executes [(index, fingerprint, job)] plans
    and returns one record per plan, in input (index) order.  Equivalent
    to {!create} + {!submit} + a {!step} loop + {!absorb_shards}, with
    the [handle_sigint] drain discipline documented on {!config}. *)
