(** Layer-wise balance constraints (Definition 5.1): every layer of a
    layering must be ε-balanced separately. *)

val feasible :
  ?variant:Part.balance -> eps:float -> int array array -> Part.t -> bool

val feasible_ignoring_small :
  ?variant:Part.balance ->
  eps:float ->
  min_size:int ->
  int array array ->
  Part.t ->
  bool
(** Ignores layers smaller than [min_size] (the relaxation discussed in
    Appendix A for degenerate layers). *)
