(** Exact branch-and-bound partitioner: ground truth at gadget scale. *)

type result = { cost : int; part : Partition.t }

val solve :
  ?metric:Partition.metric ->
  ?variant:Partition.balance ->
  ?eps:float ->
  ?upper_bound:int ->
  ?symmetry:bool ->
  ?feasible:(Partition.t -> bool) ->
  ?constrained:Constrained.instance ->
  Hypergraph.t ->
  k:int ->
  result option
(** Optimal ε-balanced k-way partition, or [None] if none exists (or none
    within [upper_bound]).  [feasible] adds an acceptance predicate checked
    at leaves; pass [~symmetry:false] when it is not invariant under color
    permutation.  [constrained] enforces per-class color capacities
    (layer-wise / multi-constraint instances) during the search. *)

val optimum :
  ?metric:Partition.metric ->
  ?variant:Partition.balance ->
  ?eps:float ->
  Hypergraph.t ->
  k:int ->
  int option

val decision : Hypergraph.t -> k:int -> cost_limit:int -> bool
(** Whether a k-way partition of connectivity cost ≤ [cost_limit] exists
    under strict balance at ε = 0. *)

val brute_force :
  ?metric:Partition.metric ->
  ?eps:float ->
  Hypergraph.t ->
  k:int ->
  result option
(** Unpruned exhaustive reference (k^n leaves); n ≲ 12 only. *)
