(** Job plans: the deterministic unit of work the batch engine schedules.

    A job carries everything needed to run it — instance source, solver
    configuration, seed, optional wall-clock budget — so a worker process
    needs no ambient state and a re-run from the same plan is
    byte-reproducible.  {!canonical} is the byte string behind the cache
    fingerprint: file instances contribute their {e content} digest and
    the result-schema version is mixed in; the timeout is excluded by
    design (a budget bounds a run, it does not change what it computes). *)

type gen_kind = Uniform | Two_regular | Planted | Spmv | Fft | Stencil

type instance =
  | Hmetis_file of string  (** hMETIS hypergraph file; partitioned *)
  | Dag_file of string  (** DAG file; list-scheduled *)
  | Generated of { kind : gen_kind; n : int }
      (** workload generator, seeded from the job seed *)
  | Experiment of string  (** paper experiment id, ["E1"].. *)
  | Spin of float
      (** fault-injection drill: sleep this many seconds (a timeout
          victim under a smaller budget) *)
  | Crash of int
      (** fault-injection drill: the worker exits immediately with this
          status, without completing the protocol *)

type algorithm = Multilevel | Recursive | Fm | Bfs | Random | Exact

type config = {
  k : int;
  eps : float;
  algorithm : algorithm;
  metric : Partition.metric;
}
(** The solver's thread count is not part of a job: it is a property of
    the host running it ({!Pool.config.solver_threads}), and every count
    returns the same result. *)

val default_config : config
(** k = 2, ε = 0.03, multilevel, connectivity. *)

type job = {
  instance : instance;
  config : config;
  seed : int;
  timeout_s : float option;  (** wall-clock budget; [None] = unbounded *)
}

(** {1 Names} *)

val gen_kinds : (string * gen_kind) list
val algorithms : (string * algorithm) list
val metrics : (string * Partition.metric) list

val metric_name : Partition.metric -> string

val describe : job -> string
(** Compact human label for progress lines ("E3", "uniform n=200 k=4
    multilevel seed=7"). *)

val config_sensitive : job -> bool
(** Whether config and seed take part in the job's identity (false for
    experiments and fault drills, whose expansion pins them). *)

val validate : job -> (unit, string) result
(** Shape checks: positive k, non-negative eps, positive generated size,
    positive timeout. *)

val validate_k : n:int -> int -> (unit, string) result
(** [validate_k ~n k]: k is at most [max 1 n] for an instance of [n]
    nodes, in {!validate}'s style ("k must be <= 24 (got 25)"). *)

(** {1 Fingerprinting} *)

val canonical : schema:string -> job -> (string, string) result
(** The canonical byte string for fingerprinting; [Error] when a file
    instance cannot be read. *)

val fingerprint : schema:string -> job -> (string, string) result
(** {!Fingerprint.digest} of {!canonical}. *)

(** {1 JSON codec} *)

val to_json : job -> Obs.Json.t
val of_json : Obs.Json.t -> (job, string) result
(** Total decoding: a missing or mistyped field is an [Error] naming it,
    never an exception or a default, so corrupted cache entries degrade
    to misses.  An ["eps"] or spin ["seconds"] of [null] (how the writer
    renders +∞) reads as +∞; a [null] ["timeout_s"] reads as [None]. *)
