(** The XP algorithm of Lemma 4.3: decide cost ≤ L in time n^f(L) by
    enumerating cut-edge configurations and packing contracted components
    by dynamic programming. *)

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
    connectivity metric: the packing DP
    tracks one load per (constraint, color) pair.  Exponential in the
    constraint count; tiny instances only. *)
