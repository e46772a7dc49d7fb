(** Layerings of a DAG (Section 5.1): disjoint layers V₁ … V_ℓ with ℓ the
    longest-path length, every edge going to a strictly later layer. *)

val num_layers : Dag.t -> int

val earliest : Dag.t -> int array
(** ASAP layering: [.(v)] is the earliest layer of node [v]. *)

val latest : Dag.t -> int array
val is_valid : Dag.t -> int array -> bool
val groups : Dag.t -> int array -> int array array
val earliest_groups : Dag.t -> int array array

val is_rigid : Dag.t -> bool
(** Whether the DAG admits exactly one layering. *)

val iter_layerings : Dag.t -> (int array -> unit) -> unit
(** Enumerates every valid layering (exponential; small instances only). *)

val count_layerings : Dag.t -> int
