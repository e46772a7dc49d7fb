(** Cache-aware batch orchestration: the engine's front door.

    [run] fingerprints every job, satisfies what it can from the
    content-addressed cache, pushes the remainder through the fork pool,
    stores fresh [Done] records back, and folds the sweep into one
    report with outcomes in plan order. *)

type config = {
  pool : Pool.config;
  cache_dir : string option;  (** [None] disables the result cache *)
}

val default_cache_dir : string
(** [".hypartition-cache"]. *)

val default_config : config

type event =
  | Cache_hit of { index : int; record : Record.t }
  | Unrunnable of { index : int; record : Record.t }
      (** the job could not even be fingerprinted (unreadable input) *)
  | Pool of Pool.event

type outcome = { record : Record.t; cached : bool }

type stats = {
  total : int;
  from_cache : int;
  ok : int;
  failed : int;
  timeouts : int;
  crashes : int;
  skipped : int;
  retries : int;  (** retry attempts consumed across the sweep *)
  cache : Cache.stats option;
}

type report = { outcomes : outcome list; stats : stats; wall_s : float }

val all_ok : report -> bool
(** Every outcome is [Done] — drives the CLI exit code. *)

val run :
  ?on_event:(event -> unit) ->
  config ->
  Spec.job list ->
  (report, string) result
(** Execute a plan list; [Error] only when the cache directory cannot be
    opened.  Job-level problems never abort the sweep — they come back
    as non-[Done] outcomes. *)

val schema_version : string
(** ["hypartition-batch/1"], the tag on {!report_to_json} documents. *)

val report_to_json : ?deterministic:bool -> jobs:int -> report -> Obs.Json.t
(** The ["hypartition-batch/1"] rendering ([jobs] = worker count).  With
    [~deterministic:true], drop wall-clock and per-record timing/observed
    sections. *)

val check_report : Obs.Json.t -> (outcome list, string) result
(** Read a ["hypartition-batch/1"] document back: every result is a
    record {!Record.of_json} accepts plus a boolean ["cached"], and
    [stats.total] and [stats.from_cache] count the results and the
    cached ones.  An [Error] names the first result that fails. *)
