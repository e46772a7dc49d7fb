(** The hierarchy assignment problem (Section 7.3, Appendix H): place k
    fixed parts onto the k leaves minimizing hierarchical cost. *)

type result = { leaf_of_part : int array; cost : float }

val contract_parts : Hypergraph.t -> Partition.t -> Hypergraph.t
(** Appendix H contraction: one node per part, uncut edges dropped,
    identical edges merged with summed weights. *)

val exact : Topology.t -> Hypergraph.t -> Partition.t -> result
(** All k! permutations; k ≤ 8. Ground truth for any depth. *)

val exact_two_level : Topology.t -> Hypergraph.t -> Partition.t -> result
(** d = 2 subset DP (any b₂); exact for k ≤ 16. *)

val matching_b2_2 : Topology.t -> Hypergraph.t -> Partition.t -> result
(** Lemma H.1: the polynomial algorithm for b₂ = 2 via maximum-weight
    perfect matching. *)

val local_search : Topology.t -> Hypergraph.t -> Partition.t -> result
(** Leaf-swap hill climbing, any depth; at most 50 rounds of swaps. *)

val recursive_matching : Topology.t -> Hypergraph.t -> Partition.t -> result
(** Bottom-up repeated maximum-weight matching for binary topologies
    (all bᵢ = 2): the full-depth polynomial heuristic extending
    Lemma H.1's exact bottom level. *)

val count_assignments : Topology.t -> float
(** f(k) of Appendix H.1: non-equivalent assignments. *)
