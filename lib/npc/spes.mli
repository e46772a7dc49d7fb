(** Smallest p-Edge Subgraph (SpES) [35], source of the Theorem 4.1
    reduction; equivalent to Minimum p-Union on graphs. *)

type solution = { nodes : int array; induced_edges : int }

val exact : Graph.t -> p:int -> solution option
(** Minimum-size subset inducing ≥ p edges; exponential, gadget scale. *)

val optimum : Graph.t -> p:int -> int option

val greedy : Graph.t -> p:int -> solution option
val is_solution : Graph.t -> p:int -> solution -> bool
