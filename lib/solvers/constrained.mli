(** Partitioning under per-class balance constraints — the solver engine
    for layer-wise (Definition 5.1) and multi-constraint (Definition 6.1)
    instances: greedy construction plus capacity-respecting local search. *)

type instance = {
  classes : int array;  (** node → class id, or −1 for unconstrained *)
  caps : int array;  (** per class: max nodes of one color *)
}

val of_layers :
  ?variant:Partition.balance ->
  eps:float ->
  k:int ->
  int array array ->
  n:int ->
  instance

val of_multi_constraint :
  eps:float ->
  k:int ->
  Partition.Multi_constraint.t ->
  n:int ->
  instance

val respects : instance -> k:int -> Partition.t -> bool

val greedy : Support.Rng.t -> instance -> Hypergraph.t -> k:int -> Partition.t

val local_search : instance -> Hypergraph.t -> Partition.t -> int
(** Improves in place with moves that keep every class within its cap, at
    most 8 sweeps over the nodes; returns the final connectivity cost. *)

val solve :
  Support.Rng.t ->
  instance ->
  Hypergraph.t ->
  k:int ->
  Partition.t
