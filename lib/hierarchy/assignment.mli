(** The hierarchy assignment problem (Section 7.3, Appendix H): place k
    fixed parts onto the k leaves minimizing hierarchical cost. *)

type result = { leaf_of_part : int array; cost : float }

val contract_parts : Hypergraph.t -> Partition.t -> Hypergraph.t
(** Appendix H contraction: one unit-weight node per part, uncut edges
    dropped, identical edges merged with summed weights. *)

val exact : Topology.t -> Hypergraph.t -> Partition.t -> result
(** The optimum, any depth: {!Solvers.Exact.hierarchical} at ε = 0 on
    {!contract_parts}, where capacity 1 puts one part on each leaf.  The
    search visits at most {!count_assignments} complete assignments, about
    1 µs each; the caller decides how large an f(k) to search. *)

val matching_b2_2 : Topology.t -> Hypergraph.t -> Partition.t -> result
(** Lemma H.1: the polynomial algorithm for b₂ = 2 via maximum-weight
    perfect matching; exact wherever {!Pairing.max_weight} is (k ≤ 20). *)

val local_search : Topology.t -> Hypergraph.t -> Partition.t -> result
(** Leaf-swap hill climbing, any depth; at most 50 rounds of swaps. *)

val count_assignments : Topology.t -> float
(** f(k) of Appendix H.1: non-equivalent assignments.  Computed from
    float factorials, so it is infinite past k = 170. *)
