(** Hierarchical partitioning audit (Section 7).

    Validates the tree shape of a topology, recomputes the hierarchical
    cost of Definition 7.1 from scratch (own mixed-radix ancestor
    arithmetic, not [Topology.ancestor] / [Hier_cost.cost]) and checks the
    Lemma 7.3 sandwich against an independently recomputed connectivity. *)

val rules : (string * string) list

val recompute_cost :
  Hierarchy.Topology.t -> Hypergraph.t -> Partition.t -> float
(** First-principles Definition 7.1 cost (exposed for the CLI). *)

val audit :
  ?claimed_cost:float ->
  Hierarchy.Topology.t ->
  Hypergraph.t ->
  Partition.t ->
  Check.report
(** Audits the topology, the leaf-indexed partition arity, the recomputed
    cost against [Hier_cost.cost] (and [claimed_cost] if given) and the
    Lemma 7.3 sandwich. *)
