(** Multilevel k-way hypergraph partitioner (coarsen / initial portfolio /
    uncoarsen + FM), the main heuristic of the library. *)

type config = {
  eps : float;
  metric : Partition.metric;
  threads : int;
      (** Workers that FM-refine the 13 coarsest-level portfolio
          candidates: one {!Parallel.map} spawns [min threads 13 - 1]
          domains and joins them before the portfolio returns; [0] and
          [1] run everything on the caller.  Coarsening, candidate
          generation and uncoarsening always run on the caller, and FM
          draws no randomness, so every value returns the same
          partition. *)
}
(** Balance is always {!Partition.Strict}.  The rest of the solver is
    fixed: coarsening stops at 60 nodes (or 4k, if larger), the coarsest
    level is solved by a portfolio of 8 random-balanced, 4 BFS-growth and
    1 round-robin starts, and every refinement is {!Refine}'s (8 passes,
    350-move cutoff). *)

val default_config : config
(** ε = 0.03, connectivity metric, no spawned domains ([threads = 0]). *)

val partition :
  ?config:config -> Support.Rng.t -> Hypergraph.t -> k:int -> Partition.t

val partition_with_cost :
  ?config:config -> Support.Rng.t -> Hypergraph.t -> k:int -> Partition.t * int
(** {!partition} and its cost under [config.metric]: the cost the solve's
    last refinement returned, so no extra pass over the hypergraph. *)

val vcycle :
  ?cycles:int -> Support.Rng.t -> Hypergraph.t -> Partition.t -> int
(** Improve an existing partition in place, [cycles] times (default 1):
    coarsen as a solve does but within its parts ({!Coarsen.hierarchy}
    [~within]), refine the carried partition at the coarsest level, then
    project and refine back up through the solve's own loop, under
    {!default_config}.  Returns the final connectivity cost. *)
