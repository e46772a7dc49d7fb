(** Exact hierarchical optima at gadget scale. *)

type result = { part : Partition.t; cost : float }

val branch_and_bound : ?eps:float -> Topology.t -> Hypergraph.t -> result option
(** DFS with the partial hierarchical cost as lower bound; first leaf fixed
    by the tree's leaf-transitive automorphism group.  Strict balance.
    n ≲ 20 on structured instances. *)

val brute_force : ?eps:float -> Topology.t -> Hypergraph.t -> result option
(** All kⁿ strictly balanced leaf-colorings; n ≲ 12. *)

val sandwich : Topology.t -> Hypergraph.t -> (float * float) option
(** (connectivity optimum, optimally assigned two-step cost): lower and
    upper bounds on the hierarchical optimum (Lemma 7.3); exact when they
    coincide. *)
