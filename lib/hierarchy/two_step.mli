(** The two-step method (Section 7.2): flat partition, then leaf
    assignment by Lemma H.1's matching (d = 2, b₂ = 2), {!Assignment.exact}
    (f(k) ≤ 3·10⁶) or {!Assignment.local_search}. A g₁-approximation
    (Lemma 7.3) that can be (b₁−1)/b₁·g₁ off (Theorem 7.4). *)

type result = {
  flat : Partition.t;
  leaf_of_part : int array;
  hierarchical : Partition.t;
  flat_cost : int;
  hier_cost : float;
}

val of_flat : Topology.t -> Hypergraph.t -> Partition.t -> result
(** Step (ii) only, for a flat partition already in hand. *)

val run : ?eps:float -> Support.Rng.t -> Topology.t -> Hypergraph.t -> result
(** {!of_flat} applied to {!Solvers.Multilevel.partition}'s k-way
    partition at [eps] (default 0.03), k the number of leaves. *)
