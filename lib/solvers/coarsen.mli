(** Coarsening by heavy-connectivity clustering for the multilevel solver. *)

type level = {
  coarse : Hypergraph.t;
  label : int array;  (** fine node → coarse node *)
}

val one_level :
  ?workspace:Workspace.t ->
  ?within:int array ->
  Support.Rng.t ->
  Hypergraph.t ->
  max_cluster_weight:int ->
  level option
(** One clustering pass, contracted.  [None] when the clustering kept
    more than 95% of the nodes: such a level is clustered (the [rng]
    advances) but not contracted, counted in [coarsen.levels] or observed
    in [coarsen.shrink]. *)

val hierarchy :
  ?workspace:Workspace.t ->
  ?within:int array ->
  Support.Rng.t ->
  Hypergraph.t ->
  k:int ->
  stop_nodes:int ->
  Hypergraph.t * level list
(** [(coarsest, levels)] with levels ordered fine → coarse.  Coarsening
    stops at [stop_nodes] nodes or at the first clustering that keeps
    more than 95% of the nodes, which is dropped before contraction.
    With [within] (one label per node of the hypergraph), every cluster
    stays inside one label; the labels go down level by level with
    {!carry}.  V-cycles coarsen within the parts of a partition this
    way, so it projects exactly at every level. *)

val carry : level -> int array -> int array
(** [carry level labels]: the labels of [level.coarse]'s nodes, each
    cluster taking its members' label — the inverse of {!project} on a
    level clustered within [labels]. *)

val project : level -> Partition.t -> Partition.t
(** Pull a partition of [level.coarse] back to the finer hypergraph. *)
