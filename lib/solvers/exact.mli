(** Exact branch-and-bound partitioner: ground truth at gadget scale.

    One depth-first search serves every objective.  It prices a partial
    assignment by what each edge's part set S gains when a node joins it
    with a part c not in S: w_e once S is non-empty (connectivity), w_e
    when S grows from one part to two (cut-net), and w_e times the transfer
    cost from leaf c to the nearest leaf of S (Definition 7.1, exactly
    [Hier_cost.edge_cost (S ∪ {c}) − edge_cost S]).  It breaks symmetry
    with one opening rule: a node may take a leaf only if, at every level,
    the leaf's child index is at most the number of its parent's children
    that already hold a node.  For a metric the tree is one level of k
    parts and the rule reads c ≤ (parts in use); applied to a deeper tree
    that flat rule would be unsound, as the leaf pair {0,2} of a (2,2) tree
    is not automorphic to the sibling pair {0,1}. *)

type _ objective =
  | Metric : Partition.metric -> int objective
  | Hierarchical : Partition.Topology.t -> float objective
      (** Definition 7.1 over the topology's leaves. *)

type 'c result = { cost : 'c; part : Partition.t }

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
  int result option
(** Optimal ε-balanced k-way partition, or [None] if none exists (or none
    within [upper_bound]).  [feasible] adds an acceptance predicate checked
    at leaves; pass [~symmetry:false] when it is not invariant under color
    permutation.  [constrained] enforces per-class color capacities
    (layer-wise / multi-constraint instances) during the search. *)

val hierarchical :
  ?eps:float -> Partition.Topology.t -> Hypergraph.t -> float result option
(** Optimal strictly ε-balanced partition onto the topology's leaves under
    the Definition 7.1 cost.  n ≲ 40 on structured instances. *)

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
  ?eps:float ->
  ?feasible:(Partition.t -> bool) ->
  'c objective ->
  Hypergraph.t ->
  k:int ->
  'c result option
(** Unpruned exhaustive reference: the first of the kⁿ strictly ε-balanced
    colorings that [feasible] accepts with the least cost; n ≲ 12 only.
    For [Hierarchical], [k] must be the topology's leaf count. *)
