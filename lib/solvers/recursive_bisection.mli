(** k-way partitioning by recursive bisection (Section 7.1) — the approach
    whose Θ(n) worst-case gap Lemma 7.2 exhibits (experiment E7). *)

type bisector =
  Hypergraph.t -> eps:float -> parts_left:int -> parts_right:int -> Partition.t
(** A 2-way split carrying [parts_left] and [parts_right] final parts. *)

val multilevel_bisector : Support.Rng.t -> bisector

val partition : ?eps:float -> bisector:bisector -> Hypergraph.t -> k:int -> Partition.t
