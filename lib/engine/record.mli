(** Versioned result records — schema ["hypartition-result/1"].

    A record binds a job plan and its fingerprint to what happened: a
    status, deterministic metrics, the worker's observability snapshot
    and timing.  The deterministic part (everything except the
    ["timing"] and ["observed"] sections) depends only on the plan, never
    on scheduling — the engine's determinism guarantee quantifies over
    {!deterministic_string}. *)

val schema_version : string
(** ["hypartition-result/1"]; mixed into every fingerprint, so bumping it
    invalidates the whole cache. *)

type status =
  | Done  (** completed and audit-clean; the only cacheable status *)
  | Failed of string  (** deterministic job-level failure (bad input,
                          infeasible instance, audit violation) *)
  | Timed_out of float  (** killed after exceeding this wall-clock budget *)
  | Crashed of string  (** worker died without completing the protocol *)
  | Skipped of string  (** never ran (e.g. SIGINT drain) *)

type timing = {
  wall_s : float;
      (** coordinator-measured wall clock, from the worker's fork to its
          reap *)
  attempts : int;  (** 1 + retries consumed *)
  worker : int;  (** worker slot, [-1] for cache hits and skipped jobs *)
  threads : int;
      (** solver domains the run was configured with; [0] = none
          spawned.  Provenance only (rendered in the ["timing"] section,
          and only when positive): every thread count returns the same
          result. *)
}

val no_timing : timing

type t = {
  fingerprint : string;
  job : Spec.job;
  status : status;
  metrics : (string * Obs.Json.t) list;  (** deterministic outcome fields *)
  observed : Obs.Json.t option;  (** worker observability snapshot *)
  timing : timing;
}

val ok : t -> bool
val cacheable : t -> bool

val status_name : status -> string
(** ["ok"], ["failed"], ["timeout"], ["crashed"], ["skipped"]. *)

val status_detail : status -> string option
(** The human detail behind a non-[Done] status. *)

(** {1 Worker payload}

    What a worker reports over its status pipe; the coordinator wraps it
    into a full record.  A worker that dies before completing the
    protocol is classified from its exit status instead. *)

type payload = {
  p_status : [ `Done | `Failed of string ];
  p_metrics : (string * Obs.Json.t) list;
  p_observed : Obs.Json.t option;
}

val payload_to_json : payload -> Obs.Json.t
val payload_of_json : Obs.Json.t -> (payload, string) result

(** {1 Record codec} *)

val to_json : ?deterministic:bool -> t -> Obs.Json.t
(** With [~deterministic:true], drop the ["timing"] and ["observed"]
    sections — the rendering the determinism guarantee quantifies over. *)

val deterministic_string : t -> string

val of_json : Obs.Json.t -> (t, string) result
(** Total decoding; malformed documents are [Error]s, so corrupted cache
    entries degrade to misses. *)
