(** Optimal makespans μ and μ_p (Section 5.2). *)

exception Too_large

val exact_makespan : Hyperdag.Dag.t -> k:int -> int
(** Exact μ via completion-mask BFS. Raises {!Too_large} beyond 22 nodes,
    the node limit of the exact bitmask dynamic programs. *)

val exact_makespan_fixed : Hyperdag.Dag.t -> int array -> k:int -> int
(** Exact μ_p for a fixed node → processor assignment (the NP-hard problem
    of Theorem 5.5). Raises {!Too_large} beyond 22 nodes. *)

val greedy_fixed : Hyperdag.Dag.t -> int array -> k:int -> Schedule.t
(** Per-processor level-priority list schedule: an upper bound on μ_p. *)

val lower_bound : Hyperdag.Dag.t -> k:int -> int
(** max(critical path, ⌈n/k⌉). *)

type mu_result = Exact of int | Bounds of int * int

val makespan_general : Hyperdag.Dag.t -> k:int -> mu_result
(** μ via Coffman–Graham (k = 2), Hu (forests), exact DP (small n), or
    (lower, upper) bounds otherwise. *)

val schedule_based_feasible : eps:float -> Hyperdag.Dag.t -> int array -> k:int -> bool
(** Definition 5.4: μ_p ≤ (1+ε)·μ. Raises {!Too_large} when exact values
    are out of reach — the practical obstruction of Theorem 5.5. *)
