(* Multilevel k-way partitioner: coarsen by clustering, solve the coarsest
   hypergraph with a portfolio of initial partitioners plus refinement, and
   project back up with FM refinement at every level. *)

let log_src = Logs.Src.create "hypartition.multilevel" ~doc:"multilevel solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  eps : float;
  metric : Partition.metric;
  threads : int; (* workers for the portfolio's FM; never changes results *)
}

let default_config =
  { eps = 0.03; metric = Partition.Connectivity; threads = 0 }

(* The coarsest-level portfolio: random-balanced and BFS-growth starts,
   plus one round-robin start. *)
let random_starts = 8
let bfs_starts = 4
let portfolio_size = random_starts + bfs_starts + 1

(* Coarsening stops below this many nodes (or 4k, if larger). *)
let stop_nodes = 60

let refine_config (c : config) : Refine.config =
  { Refine.eps = c.eps; metric = c.metric }

(* Portfolio at the coarsest level: several random-balanced and BFS-growth
   starts, each FM-refined; keep the best, preferring feasible ones.  The
   candidates are drawn on the caller, in a fixed order, before any worker
   sees them; only their FM refinement and feasibility score run as
   [Parallel.map] tasks, each on its worker's workspace with a private
   [Fm_stats] accumulator committed after the join.  FM draws no
   randomness and the winner is reduced in task-index order (ties keep
   the earlier candidate), so the result does not depend on the worker
   count. *)
let initial_partition cfg wss rng hg ~k =
  Obs.Span.with_ "multilevel.initial"
    ~attrs:
      [
        ("nodes", Obs.Int (Hypergraph.num_nodes hg));
        ("tries", Obs.Int random_starts);
      ]
    (fun () ->
      let candidates =
        Array.of_list
          (List.concat
             [
               Support.Util.list_init random_starts (fun _ ->
                   Initial.random_balanced ~eps:cfg.eps rng hg ~k);
               Support.Util.list_init bfs_starts (fun _ ->
                   Initial.bfs_growth ~eps:cfg.eps rng hg ~k);
               [ Initial.round_robin hg ~k ];
             ])
      in
      let score ~worker i =
        let part = candidates.(i) in
        let stats = Fm_stats.create () in
        let cost =
          Refine.refine ~config:(refine_config cfg) ~workspace:wss.(worker)
            ~stats hg part
        in
        let feasible = Partition.is_balanced ~eps:cfg.eps hg part in
        (((if feasible then 0 else 1), cost), part, stats)
      in
      let best =
        Array.fold_left
          (fun acc (s, p, stats) ->
            Fm_stats.commit stats;
            match acc with
            | Some (bs, _) when bs <= s -> acc
            | _ -> Some (s, p))
          None
          (Parallel.map ~threads:cfg.threads ~n:(Array.length candidates)
             score)
      in
      match best with
      | Some ((infeasible, cost), p) ->
          Obs.Span.attr "best_cost" (Obs.Int cost);
          Obs.Span.attr "feasible" (Obs.Bool (infeasible = 0));
          (p, cost)
      | None -> assert false)

let h_instance_nodes = Obs.Histogram.make "multilevel.instance_nodes"

(* Project [part], a partition of the coarsest hypergraph, back up through
   [levels] (fine → coarse) with an FM refinement at every level; the
   finest partition and the cost the last refinement returned ([cost]
   when nothing was contracted). *)
let uncoarsen config ws hg levels (part, cost) =
  let levels = Array.of_list levels in
  Obs.Span.with_ "multilevel.uncoarsen"
    ~attrs:[ ("levels", Obs.Int (Array.length levels)) ]
    (fun () ->
      let part = ref part and cost = ref cost in
      for d = Array.length levels - 1 downto 0 do
        let fine = if d = 0 then hg else levels.(d - 1).Coarsen.coarse in
        part := Coarsen.project levels.(d) !part;
        cost :=
          Refine.refine ~config:(refine_config config) ~workspace:ws fine !part
      done;
      (!part, !cost))

(* The solve behind [partition] and [partition_with_cost]: the partition
   and the cost the last refinement returned for it — the finest level's,
   or the portfolio winner's when nothing was contracted.  Everything but
   the portfolio's FM runs on the caller, which is why every [threads]
   value returns the same partition. *)
let solve config rng hg ~k =
  if k < 1 then invalid_arg "Multilevel.partition: k must be >= 1";
  if Hypergraph.num_nodes hg = 0 then (Partition.create ~k [||], 0)
  else
    Obs.Span.with_ "multilevel"
      ~attrs:
        [
          ("n", Obs.Int (Hypergraph.num_nodes hg));
          ("m", Obs.Int (Hypergraph.num_edges hg));
          ("k", Obs.Int k);
        ]
      (fun () ->
        Obs.Histogram.observe_int h_instance_nodes (Hypergraph.num_nodes hg);
        (* One workspace per portfolio worker.  Worker 0 is the caller,
           so [ws] serves every clustering level and uncoarsening
           refinement, as well as the portfolio tasks the caller claims. *)
        let wss =
          Array.init
            (max 1 (min config.threads portfolio_size))
            (fun _ -> Workspace.create ())
        in
        let ws = wss.(0) in
        let coarsest, levels =
          Coarsen.hierarchy ~workspace:ws rng hg ~k
            ~stop_nodes:(max stop_nodes (4 * k))
        in
        Log.debug (fun m ->
            m "coarsened %d -> %d nodes over %d levels"
              (Hypergraph.num_nodes hg)
              (Hypergraph.num_nodes coarsest)
              (List.length levels));
        let part, cost =
          uncoarsen config ws hg levels
            (initial_partition config wss rng coarsest ~k)
        in
        (Audit_gate.checked hg part, cost))

let partition ?(config = default_config) rng hg ~k =
  fst (solve config rng hg ~k)

let h_cost = Obs.Histogram.make "multilevel.cost"

let partition_with_cost ?(config = default_config) rng hg ~k =
  let part, cost = solve config rng hg ~k in
  let cost = Audit_gate.checked_cost ~metric:config.metric hg part cost in
  Obs.Histogram.observe_int h_cost cost;
  (part, cost)

(* V-cycle: re-coarsen with clusters confined to the current parts (so the
   projected partition is exact at every level), then refine on the way
   back up.  Improves an existing partition without losing it. *)
let vcycle ?(cycles = 1) rng hg part =
  Obs.Span.with_ "multilevel.vcycle"
    ~attrs:
      [
        ("n", Obs.Int (Hypergraph.num_nodes hg));
        ("cycles", Obs.Int (max 1 cycles));
      ]
  @@ fun () ->
  let k = Partition.k part in
  let ws = Workspace.create () in
  for _ = 1 to max 1 cycles do
    let colors = Partition.assignment part in
    let coarsest, levels =
      Coarsen.hierarchy ~workspace:ws ~within:colors rng hg ~k
        ~stop_nodes:(max stop_nodes (4 * k))
    in
    let start =
      Partition.create ~k
        (List.fold_left (fun c level -> Coarsen.carry level c) colors levels)
    in
    let start_cost =
      Refine.refine ~config:(refine_config default_config) ~workspace:ws
        coarsest start
    in
    let improved, _ =
      uncoarsen default_config ws hg levels (start, start_cost)
    in
    (* Copy the improved assignment back into [part] (same domain). *)
    Array.blit (Partition.assignment improved) 0 colors 0
      (Hypergraph.num_nodes hg)
  done;
  Audit_gate.checked_cost ~metric:Partition.Connectivity hg part
    (Partition.cost hg part)
