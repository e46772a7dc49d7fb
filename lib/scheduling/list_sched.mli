(** List scheduling of unit tasks (Graham); with the level priority this is
    Hu's algorithm, optimal on in-/out-forests. *)

val level_priority : Hyperdag.Dag.t -> int array
val schedule : ?priority:int array -> Hyperdag.Dag.t -> k:int -> Schedule.t
val makespan : Hyperdag.Dag.t -> k:int -> int
(** Makespan of the level-priority {!schedule}. *)
