(** Recursive hierarchical partitioning (Section 7.1) — the heuristic whose
    Θ(n) worst case Lemma 7.2 exhibits. *)

type splitter = Hypergraph.t -> k:int -> eps:float -> Partition.t

val multilevel_splitter : Support.Rng.t -> splitter

val partition :
  ?eps:float -> splitter:splitter -> Topology.t -> Hypergraph.t -> Partition.t
(** Leaf-colored partition obtained by splitting level by level. *)
