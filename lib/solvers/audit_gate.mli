(** Debug-gated self-audits for solver entry points.

    Every public solver wraps its result in one of these before returning
    it.  When [ANALYSIS_DEBUG] is unset the calls are no-ops (one branch
    on a cached boolean); when set, the result is audited against the
    paper invariants and {!Analysis_core.Debug.Audit_failure} is raised on
    any violation — so randomized tests catch a buggy solver at its
    source, not three layers downstream. *)

val checked :
  ?eps:float ->
  ?variant:Partition.balance ->
  ?claimed:Analysis_core.Audit_partition.claim ->
  ?bound:Analysis_core.Audit_partition.claim ->
  ?preserved_weights:int array ->
  ?constraints:Partition.Multi_constraint.t ->
  ?constraints_eps:float ->
  Hypergraph.t ->
  Partition.t ->
  Partition.t
(** Audit the partition (when enabled) and return it unchanged. *)

val checked_cost :
  metric:Partition.metric ->
  Hypergraph.t ->
  Partition.t ->
  int ->
  int
(** [checked_cost ~metric hg part cost] audits [cost] as the claimed
    objective of [part] and returns it unchanged. *)

val entry_weights : Hypergraph.t -> Partition.t -> int array option
(** Snapshot of the part weights, only materialized when the gate is
    enabled (for [preserved_weights] checks). *)
