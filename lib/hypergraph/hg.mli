(** Core hypergraph type (Section 3.1 of the paper).

    A hypergraph [G(V, E)] with nodes [0 .. n-1] and hyperedges
    [0 .. m-1], stored in immutable CSR form (pin lists plus the transposed
    node→edge incidence).  Nodes and edges carry positive integer weights
    (all 1 by default); the hardness results of the paper carry over to the
    weighted setting, and the solvers use weights for coarsening. *)

type t

(** {1 Accessors} *)

val num_nodes : t -> int
val num_edges : t -> int

val num_pins : t -> int
(** Total number of pins ρ = Σ_e |e|. *)

val edge_size : t -> int -> int
val node_degree : t -> int -> int
val node_weight : t -> int -> int
val edge_weight : t -> int -> int

val max_degree : t -> int
(** Δ = max_v |{e : v ∈ e}|. *)

val total_node_weight : t -> int
val total_edge_weight : t -> int

val iter_pins : t -> int -> (int -> unit) -> unit
val iter_incident : t -> int -> (int -> unit) -> unit
val fold_pins : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
val fold_incident : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val edge_pins : t -> int -> int array
(** Fresh sorted array of the pins of an edge. *)

val incident_edges : t -> int -> int array
val edge_mem : t -> int -> int -> bool
(** [edge_mem t e v] tests v ∈ e in O(log |e|). *)

val edges : t -> int array array

(** {1 Flat CSR access}

    Zero-copy views of the internal CSR and weight arrays, for
    allocation-free hot-path loops (closure-based {!iter_pins} costs an
    allocation per call when the closure captures per-call state).  Edge
    [e]'s pins live at indices
    [csr_edge_offsets t.(e) .. csr_edge_offsets t.(e+1) - 1] of
    [csr_pins t], and symmetrically for node incidence.  The returned
    arrays are the live internals: callers must not mutate them. *)

val csr_pins : t -> int array
val csr_edge_offsets : t -> int array
(** Length [num_edges t + 1]. *)

val csr_incidence : t -> int array
val csr_node_offsets : t -> int array
(** Length [num_nodes t + 1]. *)

val csr_edge_weights : t -> int array
(** Length [num_edges t]: [csr_edge_weights t.(e) = edge_weight t e]. *)

val csr_node_weights : t -> int array
(** Length [num_nodes t]: [csr_node_weights t.(v) = node_weight t v]. *)

(** {1 Construction} *)

val max_nodes : int
(** The largest node count the file readers accept: 2{^24} =
    16,777,216.  [Hmetis] and [Dag_io] check a header's n against it,
    and [Part_io] a part id (so k = 1 + the largest id stays within it),
    before anything is sized from those numbers: an n that only a
    header states, with no line to back it, cannot ask for an arbitrary
    allocation. *)

val of_edges :
  ?node_weights:int array ->
  ?edge_weights:int array ->
  n:int ->
  int array array ->
  t
(** [of_edges ~n edge_list] copies the edges into one flat pin array and
    builds it with {!of_csr}'s validation, raising
    [Invalid_argument "Hg.of_edges: ..."] where {!of_csr} would raise.
    Empty edges are allowed only through the low-level constructors and
    are never produced by the builder. *)

val of_csr :
  n:int ->
  node_weight:int array ->
  edge_weight:int array ->
  offsets:int array ->
  int array ->
  t
(** [of_csr ~n ~node_weight ~edge_weight ~offsets pins] builds the
    hypergraph whose edge [e] has the pins
    [pins.(offsets.(e)) .. pins.(offsets.(e+1) - 1)], with
    [m = Array.length edge_weight].

    It takes ownership of all four arrays: they become the hypergraph's
    internals (see {!csr_pins}), so the caller must not use them
    afterwards.  A slice that is not strictly increasing is sorted in
    place.  Each slice is then checked pin by pin in sorted order, edges
    in order: a pin outside [\[0, n)] raises
    [Invalid_argument "Hg.of_csr: pin out of range"], a repeated one
    ["Hg.of_csr: duplicate pin within an edge"].  Before that, arrays of
    the wrong length, and offsets that do not start at 0, decrease or end
    short of [Array.length pins], raise [Invalid_argument] too.  Already
    sorted slices cost one linear scan. *)

val empty : int -> t
(** [empty n] has [n] isolated nodes and no edges. *)

(** Incremental construction with stable node/edge ids, used by the gadget
    and reduction builders. *)
module Builder : sig
  type hypergraph := t
  type b

  val create : unit -> b
  val add_node : ?weight:int -> b -> int
  val add_nodes : ?weight:int -> b -> int -> int array
  val add_edge : ?weight:int -> b -> int array -> int
  val build : b -> hypergraph
end

(** {1 Derived hypergraphs} *)

val add_isolated_nodes : t -> int -> t
(** Appends unit-weight isolated nodes (used by the ε-reduction of
    Lemma A.1). *)

val induced_subgraph : t -> int array -> t * int array * int array
(** [induced_subgraph t keep] keeps the given nodes and exactly the
    hyperedges contained in them (the notion of Appendix B).  Returns
    [(sub, old_nodes, old_edges)] mapping new ids back to old ones. *)

val restrict : t -> int array -> t
(** [restrict t keep] is the side of a split that a recursive partitioner
    recurses on: node [i] is [keep.(i)], and unlike {!induced_subgraph}
    an edge that leaves [keep] is not dropped but cut down to its pins in
    [keep], kept when at least 2 remain, so that lower levels still see
    the side's internal connectivity.  Edges keep their order and
    weights. *)

val contract :
  ?drop_singletons:bool -> ?merge_identical:bool -> t -> int array -> int -> t
(** [contract t label count] merges nodes with equal labels (labels must lie
    in [\[0, count)]), summing node weights.  Singleton edges are dropped and
    identical edges merged (weights summed) unless disabled. *)

val connected_components : t -> int array * int
(** [(label, count)]: nodes sharing a hyperedge are in the same component. *)

val disjoint_union : t -> t -> t
(** Nodes of the second graph are shifted by [num_nodes] of the first. *)

val degree_sequence : t -> int array
(** Node degrees in non-decreasing order. *)

val pp : Format.formatter -> t -> unit
