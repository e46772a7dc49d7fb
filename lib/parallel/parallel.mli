(** Fork-join [map] over worker [Domain]s — the repository's designated
    concurrency module (lint rule SRC11; allowlisted in [lint.config]).

    Contract (see DESIGN.md, "The parallel contract"): no domain outlives
    the {!map} call that spawned it, so none can cross [Unix.fork] (the
    engine's process pool).  Task bodies run on worker domains, where the
    Obs registries are inert ({!Obs.enabled} is false off the main
    domain); they must not touch other shared mutable state unless writes
    are disjoint (task [i] writes only what it owns). *)

val map : threads:int -> n:int -> (worker:int -> int -> 'a) -> 'a array
(** [map ~threads ~n f] computes [[| f ~worker:_ 0; ...; f ~worker:_ (n-1) |]]
    on [max 1 (min threads n)] workers: the caller (worker 0) plus
    [min threads n - 1] domains spawned and joined inside the call, so
    [threads <= 1] runs every task on the caller in index order.  Tasks
    are claimed dynamically, but each result lands at its own index, so
    the array does not depend on the schedule.  [worker] is in
    [\[0, max 1 (min threads n))], for indexing per-worker scratch; a
    correct task's {e result} must not depend on it.  If tasks raise, the
    exception of the smallest-index failing task is re-raised after every
    spawned domain is joined. *)
