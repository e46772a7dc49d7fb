(* Layer-wise balance constraints (Definition 5.1): given a layering
   V_1, ..., V_l of a hyperDAG, every layer must be epsilon-balanced
   separately.  A layering is represented as the array of layers, each an
   array of node ids.  This is the special case of multi-constraint
   partitioning where the subsets partition all of V. *)

let feasible ?variant ~eps layers part =
  Array.for_all
    (fun layer -> Multi_constraint.subset_feasible ?variant ~eps part layer)
    layers

(* Degenerate layers (smaller than k) make the Strict constraint
   unsatisfiable; Section A suggests either the Relaxed variant or ignoring
   layers below a size threshold. *)
let feasible_ignoring_small ?variant ~eps ~min_size layers part =
  Array.for_all
    (fun layer ->
      Array.length layer < min_size
      || Multi_constraint.subset_feasible ?variant ~eps part layer)
    layers
