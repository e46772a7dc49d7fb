(** Coarsening by heavy-connectivity clustering for the multilevel solver. *)

type level = {
  coarse : Hypergraph.t;
  label : int array;  (** fine node → coarse node *)
}

val cluster :
  ?workspace:Workspace.t ->
  ?within:int array ->
  Support.Rng.t ->
  Hypergraph.t ->
  max_cluster_weight:int ->
  int array * int
(** One clustering pass; [(label, cluster_count)].  With [within], nodes
    merge only when they share the given label (used by v-cycles to keep
    clusters inside partition classes).  Ratings accumulate in the
    [workspace]'s flat score array with a touched-list reset; a private
    workspace is used when none is given. *)

val one_level :
  ?workspace:Workspace.t ->
  ?within:int array ->
  ?max_shrink:float ->
  Support.Rng.t ->
  Hypergraph.t ->
  max_cluster_weight:int ->
  level option
(** One clustering pass, contracted.  [None] when clustering made no
    progress, or when it kept more than [max_shrink] (default 1.0) of the
    nodes: such a level is clustered (the [rng] advances) but not
    contracted, counted in [coarsen.levels] or observed in
    [coarsen.shrink]. *)

val hierarchy :
  ?workspace:Workspace.t ->
  Support.Rng.t ->
  Hypergraph.t ->
  k:int ->
  stop_nodes:int ->
  Hypergraph.t * level list
(** [(coarsest, levels)] with levels ordered fine → coarse.  Coarsening
    stops at [stop_nodes] nodes or at the first clustering that keeps
    more than 95% of the nodes, which is dropped before contraction. *)

val project : level -> Partition.t -> Partition.t
(** Pull a partition of [level.coarse] back to the finer hypergraph. *)
