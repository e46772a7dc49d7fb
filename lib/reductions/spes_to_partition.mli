(** The main reduction (Theorem 4.1 / Lemma C.1) and its Appendix C
    variants, built as one construction: OPT_source = OPT_partition.

    The source is a hypergraph whose p-edge selections are the
    solutions: a Minimum p-Union instance as is (Appendix C.5), or an
    SpES graph through {!Npc.Graph.to_hypergraph}, where the union of p
    edges is the set of vertices they cover.  Every source edge e gets a
    gadget B_e and every source node v a node b_v with a main hyperedge
    joining it to the gadgets of the edges at v.  Two anchors, A (blue,
    tied to every b_v) and A′ (red), are sized so that a balanced
    partition puts exactly p gadgets on A′'s side; the cut main
    hyperedges are then the union of those p edges.  For k ≥ 3,
    k₀ − 2 filler blocks of the red side's size take the extra colors,
    where k₀ = ⌈k/(1+ε)⌉ (Appendix C.4).

    The two builders differ only in the gadget; they share the size
    search, {!embed}, {!extract} and {!union_size}.  Every
    [Invalid_argument] starts with [Spes_to_partition.<fn>:]. *)

type t

val build : ?eps:float -> Hypergraph.t -> k:int -> p:int -> t
(** Block gadgets (Lemma A.5) of |V| + 1 nodes, with b_v tied to A by
    |V| + 1 parallel edges.  Rejects p outside [\[1, |E|\]], k < 2, and
    k ≥ 3 when k₀ = 2 (the k = 2 construction applies). *)

val build_delta2 :
  ?eps:float -> ?hyperdag:bool -> Npc.Graph.t -> p:int -> t
(** The Δ = 2 form at k = 2 (Lemma C.6): every gadget is a grid of side
    2|V| (Definition C.2) whose two outsiders stand for the edge's
    endpoints, and b_v is an outsider of A's grid.  With
    [~hyperdag:true] both anchors also get a degree-1 padding outsider,
    which makes the output a hyperDAG (Appendix C.3).  Rejects p outside
    [\[1, |E|\]], and a graph with more vertices than A's grid has room
    for as outsiders. *)

val hypergraph : t -> Hypergraph.t
val capacity : t -> int

val embed : t -> int array -> Partition.t
(** Exactly p source edges → a balanced partition of cost |union|: A′
    and the chosen gadgets red (color 1), filler i color 2 + i, every
    other node blue (color 0). *)

val extract : t -> Partition.t -> int array
(** The cleanup of Lemma C.1: red is A′'s majority color among the
    [Partition.k part] colors, a tie going to the larger color, and the
    selection is the p gadgets with the most red nodes. *)

val union_size : t -> int array -> int
(** The source objective of a selection: the size of its union, which
    for an SpES graph is the number of covered vertices. *)
