(** The [hypartition serve] daemon: the batch engine as a long-lived
    partitioning service.

    One single-threaded loop multiplexes the listening socket, every
    client connection and the worker status pipes through the
    incremental {!Engine.Pool}.  Requests pass the {!Admission}
    controller (explicit [Busy] backpressure, never silent drops),
    collapse onto identical in-flight requests ({!Jobs}), are served
    from the content-addressed {!Engine.Cache} when a prior solve
    matches, and otherwise fork workers.  File-backed instances stay
    hot in an {!Instances} LRU that forked workers reach through
    copy-on-write.

    Every request is traced (request → queue-wait → solve → respond,
    trace id = job fingerprint) via {!Obs.Manual}, with worker shards
    absorbed under the request's solve span — report analytics work on
    server traces unchanged.

    Graceful drain (SIGINT or a [Shutdown] frame): stop accepting,
    reject new submits with [Busy draining], turn queued jobs into
    [Skipped] records (their waiters still get result frames), let
    running workers finish, flush every connection, absorb remaining
    shards. *)

type endpoint = Unix_socket of string | Tcp of string * int
(** [Tcp ("", port)] binds the loopback address. *)

type config = {
  endpoint : endpoint;
  pool : Engine.Pool.config;  (** [handle_sigint] is forced off — the
                                  daemon owns its signal discipline *)
  cache_dir : string option;  (** shared result store; [None] disables *)
  admission : Admission.config;
  lru_capacity : int;  (** hot-instance LRU entries *)
}

val default_config : config
(** Unix socket [hypartition.sock], 2 workers, no cache, default
    admission limits, 16 LRU entries. *)

type t

val create : config -> (t, string) result
(** Bind and listen (replacing a stale Unix socket file), open the
    cache, build the pool.  Errors are messages, not exceptions. *)

val step : ?timeout:float -> t -> unit
(** One loop iteration: fork/reap workers, accept, read and answer
    frames, flush output.  Blocks at most [timeout] (default 0.05 s),
    and at most 1 ms while a worker has closed its status pipe but not
    exited ({!Engine.Pool.step}).  Exposed so tests can interleave a
    daemon and its clients in one thread. *)

val initiate_drain : t -> unit
(** Begin graceful shutdown (idempotent): see the module preamble. *)

val draining : t -> bool

val finished : t -> bool
(** Drain complete: no queued or running jobs and every connection
    flushed.  Call {!close} next. *)

val close : t -> unit
(** Close every socket, remove the Unix socket file, absorb leftover
    worker shards. *)

val run : t -> unit
(** [step] until {!finished}, then {!close}.  Installs a SIGINT handler
    (restored on exit) that triggers {!initiate_drain} — so Ctrl-C is a
    graceful drain, with zero orphan workers. *)

val endpoint_name : endpoint -> string
(** ["unix:<path>"] or ["tcp:<host>:<port>"] — for logs. *)
