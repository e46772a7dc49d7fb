(** Recursive partitioning (Section 7.1) — the method whose Θ(n)
    worst-case gap Lemma 7.2 exhibits (experiment E7).

    A group carrying p final parts splits into children that each carry a
    fixed share, and each child recurses on its side; a group carrying
    one part is a final part.  Equal shares are split by
    {!Multilevel.partition} with one part per child.  The one unequal
    case, ⌈p/2⌉ and ⌊p/2⌋ for odd p, is a greedy fill of the larger side
    to its capacity followed by positive-gain moves under both sides'
    capacities.

    Every split gets ε′ = (1+ε)^(1/L) − 1, L the number of recursion
    levels (⌈log₂ k⌉ for bisection, d on a topology), so every final
    part stays within (1+ε)·W/k wherever each split finds a balanced
    split.  A side carrying s parts is also capped at s·⌊(1+ε)·W/k⌋, so
    an upper split never leaves a side that the lower splits cannot
    divide within the final capacity.  A side recurses on its
    {!Hypergraph.restrict} (connectivity, and every topology), or under
    cut-net on its {!Hypergraph.induced_subgraph}: an edge a split cuts
    has already paid its cost. *)

val bisection :
  ?eps:float ->
  ?metric:Partition.metric ->
  Support.Rng.t ->
  Hypergraph.t ->
  k:int ->
  Partition.t
(** Recursive bisection into [k] parts: a group carrying p parts splits
    into ⌈p/2⌉ and ⌊p/2⌋.  [eps] defaults to 0.03, [metric] to
    connectivity.  A 2-way split costs the same under both metrics, so
    the metric decides only what a side recurses on. *)

val hierarchical :
  ?eps:float -> Support.Rng.t -> Partition.Topology.t -> Hypergraph.t ->
  Partition.t
(** Recursive partitioning along a topology: level i splits every group
    into bᵢ equal shares, and the result's colors are leaf indices.  On
    {!Partition.Topology.uniform_binary} of depth d it is {!bisection} at
    k = 2^d. *)
