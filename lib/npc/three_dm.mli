(** 3-Dimensional Matching (source of Lemma H.2). *)

type instance

val create : q:int -> (int * int * int) list -> instance
val size : instance -> int
val triples : instance -> (int * int * int) array
val perfect_matching : instance -> (int * int * int) list option
val has_perfect_matching : instance -> bool
val is_perfect_matching : instance -> (int * int * int) list -> bool
val random_yes : Support.Rng.t -> q:int -> extra:int -> instance
