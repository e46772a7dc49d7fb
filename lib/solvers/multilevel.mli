(** Multilevel k-way hypergraph partitioner (coarsen / initial portfolio /
    uncoarsen + FM), the main heuristic of the library. *)

type config = {
  eps : float;
  variant : Partition.balance;
  metric : Partition.metric;
  refine_passes : int;
  initial_tries : int;
  stop_nodes : int;
  threads : int;
      (** [0] (the default) runs the original sequential path untouched.
          [N >= 1] runs the parallel path — propose/commit coarsening
          ({!Par_coarsen}), a scattered initial portfolio, synchronized
          label-propagation refinement ({!Par_refine}) — on a pool of
          [N] workers created and shut down inside the solve.  The
          parallel path's output is a pure function of (hypergraph,
          rng, config): [threads = 1] and [threads = 8] produce
          identical partitions (it is a {e different} algorithm from
          the sequential path, whose results it does not reproduce). *)
}

val default_config : config
(** ε = 0.03, strict balance, connectivity metric, sequential
    ([threads = 0]). *)

val partition :
  ?config:config -> Support.Rng.t -> Hypergraph.t -> k:int -> Partition.t

val partition_with_cost :
  ?config:config -> Support.Rng.t -> Hypergraph.t -> k:int -> Partition.t * int

val vcycle :
  ?config:config ->
  ?cycles:int ->
  Support.Rng.t ->
  Hypergraph.t ->
  Partition.t ->
  int
(** Improve an existing partition in place by coarsening within its parts
    and refining on the way back up; returns the final cost. *)

val partition_best :
  ?config:config ->
  ?restarts:int ->
  Support.Rng.t ->
  Hypergraph.t ->
  k:int ->
  Partition.t
(** Best of several independent runs (default 4), preferring feasible
    partitions. *)
