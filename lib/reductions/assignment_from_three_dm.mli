(** Lemma H.2: hierarchy assignment with d = 2, b₂ = 3 is NP-hard — via
    3-Dimensional Matching. *)

type t

val build : Npc.Three_dm.instance -> t
val hypergraph : t -> Hypergraph.t
val topology : t -> Hierarchy.Topology.t
val target_gain : t -> int

val gain : t -> int array -> int
(** Level-1 gain Σ w_e·(|e| − λ¹_e) of a leaf assignment. *)

val embed : t -> (int * int * int) list -> int array
(** Perfect matching → leaf assignment achieving the target gain. *)

val best_gain : t -> int
(** Optimal gain via {!Hierarchy.Assignment.exact} (k ≤ 16). *)

val matching_exists_via_assignment : t -> bool
