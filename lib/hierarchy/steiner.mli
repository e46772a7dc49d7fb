(** Arbitrary processor topologies (Appendix I.2): Steiner-tree hyperedge
    costs over a metric cost matrix. *)

type matrix = float array array

val of_topology : Topology.t -> matrix
val exact : matrix -> int array -> float
(** Dreyfus–Wagner DP; ≤ 14 terminals. *)

val mst_approx : matrix -> int array -> float
(** Terminal-MST 2-approximation. *)

val cost : matrix -> Hypergraph.t -> Partition.t -> float
(** Σ_e w_e · (Steiner tree over e's parts): {!exact} up to 14 parts,
    {!mst_approx} beyond. *)
