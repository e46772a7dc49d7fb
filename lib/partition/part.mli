(** k-way partitions of a hypergraph, the ε-balance constraint, and the two
    cost metrics of Section 3.1 (cut-net and connectivity). *)

type metric = Cut_net | Connectivity

type t

val create : k:int -> int array -> t
(** [create ~k assignment] with colors in [\[0, k)]. The array is captured,
    not copied. *)

val k : t -> int
val assignment : t -> int array
val color : t -> int -> int
val copy : t -> t
val equal : t -> t -> bool

val of_predicate : k:int -> n:int -> (int -> int) -> t
val trivial : k:int -> n:int -> t
val random : Support.Rng.t -> k:int -> n:int -> t

val part_weights : Hypergraph.t -> t -> int array
val part_sizes : Hypergraph.t -> t -> int array
val nonempty_parts : Hypergraph.t -> t -> int

(** {1 Balance} *)

type balance =
  | Strict  (** ⌊(1+ε)·W/k⌋: Definition 3.1 as stated *)
  | Relaxed  (** ⌈(1+ε)·W/k⌉: the always-feasible variant of Section 3.1 *)

val capacity :
  ?variant:balance -> eps:float -> total_weight:int -> k:int -> unit -> int
(** Maximum allowed part weight, at most [total_weight]: every eps ≥ k − 1
    (infinity included) allows one part to hold everything.  A negative or
    NaN eps raises [Invalid_argument]. *)

val is_balanced : ?variant:balance -> eps:float -> Hypergraph.t -> t -> bool

val imbalance : Hypergraph.t -> t -> float
(** [(max part weight) / (W/k) − 1]; a partition is ε-balanced iff its
    imbalance is ≤ ε (up to integrality). *)

(** {1 Cost} *)

val lambda : Hypergraph.t -> t -> int -> int
(** λ_e: the number of parts intersected by edge [e]. *)

val is_cut : Hypergraph.t -> t -> int -> bool
val all_lambdas : Hypergraph.t -> t -> int array

val cost : ?metric:metric -> Hypergraph.t -> t -> int
(** Total edge-weighted cost; [metric] defaults to [Connectivity]. *)

val cutnet_cost : Hypergraph.t -> t -> int
val connectivity_cost : Hypergraph.t -> t -> int
val cut_edges : Hypergraph.t -> t -> int list

val pp : Format.formatter -> t -> unit
