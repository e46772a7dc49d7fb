(** Fixed pool of worker [Domain]s with a fork-join scatter/gather API —
    the repository's designated concurrency module (lint rule SRC11;
    allowlisted in [lint.config]).

    A pool with [threads = t] runs tasks on [t] workers: the calling
    domain (worker 0) plus [t - 1] spawned domains.  [threads <= 1]
    spawns nothing and every operation degenerates to a sequential loop
    on the caller — which is exactly what makes the threads-1-vs-N
    determinism contract testable: both sides run the same algorithm.

    Lifecycle contract (see DESIGN.md, "The parallel contract"): a pool
    is created inside one solve and shut down before the solve returns.
    In particular a live pool must never be carried across [Unix.fork]
    (the engine's process pool): spawned domains do not survive a fork,
    so the engine forks first and each worker process creates its own
    pool.  Pools are not reentrant — only the creating domain may call
    [map], and one call at a time.

    Task bodies run on worker domains, where the Obs registries are
    inert ({!Obs.enabled} is false off the main domain); they must not
    touch other shared mutable state unless writes are disjoint (the
    scatter/gather idiom: task [i] writes only slot [i]). *)

type t

val create : threads:int -> t
(** A pool of [max 1 threads] workers ([threads - 1] spawned domains).
    Spawned workers idle on a condition variable between jobs. *)

val threads : t -> int
(** The worker count the pool was created with (>= 1). *)

val shutdown : t -> unit
(** Signal and join every spawned domain.  Idempotent; the pool is
    unusable afterwards. *)

val run : threads:int -> (t -> 'a) -> 'a
(** [run ~threads f] brackets [f] between {!create} and {!shutdown}
    (shutting down on exceptions too). *)

val map : t -> n:int -> (worker:int -> int -> 'a) -> 'a array
(** [map pool ~n f] computes [[| f ~worker:_ 0; ...; f ~worker:_ (n-1) |]].
    Tasks are claimed dynamically (an atomic ticket counter), but each
    result is written at its own index, so the gathered array — and
    therefore everything downstream of a deterministic fold over it — is
    independent of the schedule.  [worker] identifies the executing
    worker (0 = the caller), for indexing per-worker scratch like the
    solver's [Workspace] array; a correct task's {e result} must not
    depend on it.  If tasks raise, the exception of the smallest-index
    failing task is re-raised on the caller after all workers drain. *)
