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
      (** Size of the domain pool that FM-refines the coarsest-level
          portfolio, created and shut down inside the solve; [0] and [1]
          run everything on the caller.  Coarsening, candidate generation
          and uncoarsening always run on the caller, and FM draws no
          randomness, so every value returns the same partition. *)
}

val default_config : config
(** ε = 0.03, strict balance, connectivity metric, no spawned domains
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
