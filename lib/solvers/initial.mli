(** Initial partitioners used at the coarsest multilevel level and as
    experiment baselines. *)

val random_balanced :
  eps:float ->
  Support.Rng.t ->
  Hypergraph.t ->
  k:int ->
  Partition.t
(** Random node order, each node to the lightest part with room. *)

val bfs_growth :
  eps:float ->
  Support.Rng.t ->
  Hypergraph.t ->
  k:int ->
  Partition.t
(** Grows parts one at a time along hyperedge adjacency from random seeds. *)

val round_robin : Hypergraph.t -> k:int -> Partition.t
(** Deterministic [v mod k] assignment. *)
