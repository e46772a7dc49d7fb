(** FM-style k-way refinement with gain buckets, locking and rollback
    (classic Fiduccia–Mattheyses for k = 2). *)

type config = { eps : float; metric : Partition.metric }
(** Balance is always {!Partition.Strict}.  A call runs at most 8 passes,
    and a pass gives up after 350 consecutive applied moves without a new
    best prefix (the classic FM cutoff bounding how far a pass hill-climbs
    into a plateau), or as soon as no balanced prefix is reachable (the
    balance cutoff, counted in [fm.balance_cutoffs]; exact, it skips only
    moves the rollback would undo). *)

val default_config : config
(** ε = 0, connectivity metric. *)

val refine :
  ?config:config ->
  ?workspace:Workspace.t ->
  ?stats:Fm_stats.t ->
  Hypergraph.t ->
  Partition.t ->
  int
(** Refines the partition in place (first rebalancing if some part exceeds
    capacity) and returns the final cost under the configured metric.

    Every [fm.*] counter / histogram emission of the call goes to an
    {!Fm_stats} accumulator.  Without [?stats] the call commits a private
    one to the Obs registries before returning.  With [?stats] the
    caller commits it — the contract for calls running as
    [Parallel.map] tasks, which may land on worker domains where Obs is
    inert; {!Multilevel.partition}'s portfolio commits accumulators in
    task-index order after the join so totals are
    thread-count-independent.

    The pass is boundary-driven: only nodes incident to cut edges enter
    the gain queue, gains come from a per-node cache that each move keeps
    exact in one walk over its edges, and the balance check is O(1)
    against an incrementally maintained overweight-part count.  A shared
    [workspace] (as threaded by {!Multilevel}) reuses scratch arrays and
    the bucket queue across calls; results are identical either way. *)
