(** Simple undirected graphs (inputs of SpES, coloring, clique). *)

type t

val of_edges : n:int -> (int * int) list -> t
val num_nodes : t -> int
val num_edges : t -> int
val edges : t -> (int * int) array
(** Normalized [(u, v)] with [u < v], sorted. *)

val neighbors : t -> int -> int array
val degree : t -> int -> int
val has_edge : t -> int -> int -> bool
val incident_edges : t -> int -> int list
(** Indices into [edges t]. *)

val to_hypergraph : t -> Hypergraph.t
(** Edge [e] becomes the 2-pin hyperedge [e]: the SpES source of the
    main reduction as a Minimum p-Union instance (Appendix C.5), where
    the union of p edges is the set of vertices they cover. *)

val max_degree : t -> int
val complete : int -> t
val random : Support.Rng.t -> n:int -> p:float -> t
val cycle : int -> t
val induced_edge_count : t -> int array -> int
