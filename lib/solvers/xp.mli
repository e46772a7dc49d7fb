(** The XP algorithm of Lemma 4.3: decide cost ≤ L in time n^f(L) by
    enumerating cut-edge configurations (at most L edges, each with an
    allowed set of at least two colors, charged w_e for cut-net and
    w_e·(|set| − 1) for connectivity) and packing the contracted components
    of the other edges by dynamic programming.

    One enumerator, one packing DP and one witness search serve both
    problems.  The DP keeps a load per (class, color): the standard problem
    is one class holding every node, counted by weight under (1+ε)W/k; the
    multi-constraint problem has one class per constraint subset V_j,
    counted by node under (1+ε)|V_j|/k.  Configurations are tried by
    increasing edge count, and the witness is the first packing found. *)

val decision :
  ?metric:Partition.metric ->
  ?variant:Partition.balance ->
  ?eps:float ->
  Hypergraph.t ->
  k:int ->
  cost_limit:int ->
  Partition.t option
(** A witness partition of cost ≤ [cost_limit], if one exists. *)

val optimum :
  ?metric:Partition.metric ->
  ?eps:float ->
  Hypergraph.t ->
  k:int ->
  limit:int ->
  (int * Partition.t) option
(** Smallest L ≤ [limit] admitting a solution, with a witness. *)

val decision_multi :
  ?variant:Partition.balance ->
  ?eps:float ->
  Hypergraph.t ->
  k:int ->
  constraints:Partition.Multi_constraint.t ->
  cost_limit:int ->
  Partition.t option
(** Multi-constraint variant (Lemma 6.2 / Appendix D.2) under the
    connectivity metric: every class V_j ε-balanced separately.
    Exponential in the constraint count; tiny instances only. *)
