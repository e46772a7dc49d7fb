(** The paper's counterexample constructions (Figures 2, 4, 6, 8, 9 and the
    Hendrickson–Kolda comparison of Appendix B). *)

val triangle : unit -> Hypergraph.t
(** Figure 2: not a hyperDAG. *)

val serial_concatenation : half:int -> Hyperdag.Dag.t * Partition.t
(** Figure 4: (dag, the balanced-but-unparallelizable split). *)

type two_branch = {
  dag : Hyperdag.Dag.t;
  source : int;
  sink : int;
  upper_set : int array;
  upper_mid : int;
  lower_first : int;
  lower_set : int array;
}

val two_branch : b:int -> two_branch
(** Figure 6. *)

val two_branch_branch_coloring : two_branch -> Partition.t
(** Cut cost 2, near-perfect parallelism, layer-wise infeasible. *)

val two_branch_layerwise : two_branch -> Partition.t
(** Layer-wise feasible, cut cost Θ(b). *)

type nine_blocks = {
  hypergraph : Hypergraph.t;
  large : int array array;
  small : int array array;
  unit_size : int;
}

val nine_blocks : unit_size:int -> nine_blocks
(** Lemma 7.2 / Figure 8 (b₁ = b₂ = 2, n = 12·unit_size). *)

val nine_blocks_direct : nine_blocks -> Partition.t
(** The O(1)-cost direct 4-way partition. *)

val nine_blocks_first_bisection : nine_blocks -> Partition.t
(** The cost-0 first recursive split (large chain vs small chain). *)

type star = {
  hypergraph : Hypergraph.t;
  k : int;
  m : int;
  t_size : int;
  a : int array;
  b_blocks : int array array;
  c_blocks : int array array;
  d : int array;
  e_blocks : int array array;
}

val star : k:int -> m:int -> unit_size:int -> star
(** Theorem 7.4 / Figure 9 (ε = 0, T = (k−1)·unit_size). *)

val star_flat_optimum : star -> Partition.t
(** The regular-metric optimum ((k−1)·m cut edges, scattered B's). *)

val star_hier_optimum : star -> Partition.t
(** The hierarchical optimum (all B's in one part). *)

type two_level_block = { first : int array; second : int array }

val two_level_block :
  Hypergraph.Builder.b -> first_size:int -> second_size:int -> two_level_block
(** Appendix I.1: the hyperDAG replacement for block gadgets; splitting
    the second group costs at least [first_size]. *)

type nine_blocks_hyperdag = {
  hypergraph : Hypergraph.t;
  large : two_level_block array;
  small : two_level_block array;
  unit_size : int;
}

val nine_blocks_hyperdag : unit_size:int -> nine_blocks_hyperdag
(** The Lemma 7.2 construction as a hyperDAG, with the Appendix I.1 group
    sizes (n = 72·unit_size). *)

val nine_blocks_hyperdag_direct : nine_blocks_hyperdag -> Partition.t
(** {!nine_blocks_direct} on the two-level blocks: balanced at ε = 0,
    cost 5. *)

val hk_hypergraph : Hyperdag.Dag.t -> Hypergraph.t
(** The Hendrickson–Kolda model: u's hyperedge = {u} ∪ preds ∪ succs. *)

val bipartite_sources_sinks : sources:int -> sinks:int -> Hyperdag.Dag.t
(** The Appendix B separation example. *)
