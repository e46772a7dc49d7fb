(** Partition vector files: one part id per line, '%' comments. *)

val of_string : n:int -> string -> Part.t
(** [k] is inferred as 1 + the largest id.  Raises [Failure] on malformed
    input, entry-count mismatch or an id of {!Hypergraph.max_nodes} or
    more. *)

val to_string : Part.t -> string
val load : n:int -> string -> Part.t
val save : string -> Part.t -> unit
