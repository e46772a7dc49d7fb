(** Per-domain accumulator for the [fm.*] observability series.

    The Obs registries are main-domain-only (worker domains see
    {!Obs.enabled} = [false]), so refinement running on a worker domain
    would silently drop its counters.  Instead {!Refine.refine} makes
    every [fm.*] counter and histogram emission into an accumulator:
    its own, committed before it returns, or the caller's [?stats].
    {!Multilevel.partition} gives each coarsest-level portfolio task its
    own accumulator, whichever worker runs it (the caller included), and
    commits them to the real registries on the main domain, in
    task-index order after the join ({!commit}) — the same
    batch-then-absorb shape the engine uses for worker-process trace
    shards.  Totals are therefore independent of the thread count and
    free of double-counts: each emission lands in exactly one
    accumulator, and each accumulator is committed exactly once. *)

type acc = {
  mutable a_count : int;
  mutable a_sum : float;
  mutable a_min : float;
  mutable a_max : float;
  mutable a_last : float;
}
(** One histogram's batched observations (same stats Obs keeps). *)

type t = {
  mutable pops : int;
  mutable stale : int;
  mutable applied : int;
  mutable accepted : int;
  mutable rolled_back : int;
  mutable rebalance : int;
  mutable balance_cutoffs : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable delta_updates : int;
  pass_gain : acc;
  final_cost : acc;
  boundary : acc;
  pass_alloc : acc;
}

val create : unit -> t

val observe : acc -> float -> unit
val observe_int : acc -> int -> unit

val commit : t -> unit
(** Add the accumulated totals to the [fm.*] Obs registries.  Call once
    per accumulator, on the main domain; a no-op while collection is
    disabled. *)
