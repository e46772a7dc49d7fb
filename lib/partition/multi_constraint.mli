(** Multi-constraint partitioning (Definition 6.1): pairwise-disjoint node
    subsets V₁ … V_c, each required to be ε-balanced separately. *)

type t

val create : ?lower_bounds:int array array -> int array array -> t
(** [create subsets] validates pairwise disjointness.  [lower_bounds.(j).(c)]
    optionally requires at least that many nodes of color [c] in subset [j]
    (a convenience the reductions of Appendix D otherwise encode with fixed
    filler nodes per Lemma D.2). *)

val subsets : t -> int array array
val num_constraints : t -> int

val subset_feasible :
  ?variant:Part.balance -> eps:float -> Part.t -> int array -> bool
(** Whether a single subset satisfies the ε-balance constraint
    |Pᵢ ∩ Vⱼ| ≤ (1+ε)·|Vⱼ|/k for all colors i. *)

val feasible : eps:float -> t -> Part.t -> bool

val single : n:int -> t
(** One constraint covering all of V: the standard problem. *)
