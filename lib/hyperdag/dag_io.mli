(** Plain-text DAG format ("n m" header, then "u v" edge lines; '%'
    comments) and Graphviz export. *)

val of_string : string -> Dag.t
(** Raises [Failure] with a ["Dag_io.of_string: "] message on malformed
    input, including an n above {!Hypergraph.max_nodes}. *)

val to_string : Dag.t -> string
val load : string -> Dag.t
val save : string -> Dag.t -> unit
val to_dot : ?parts:int array -> Dag.t -> string
