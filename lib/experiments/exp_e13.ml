(* E13 — Heuristic quality (the Section 1 motivation: hardness makes
   heuristics essential).  Connectivity cost of random, greedy, FM-refined
   and multilevel partitioners on SpMV and random hypergraphs, plus
   agreement with the exact optimum at small scale. *)

let algorithms rng =
  [
    ( "random",
      fun hg ~k ->
        Solvers.Initial.random_balanced ~eps:0.03 rng hg ~k );
    ("bfs growth", fun hg ~k -> Solvers.Initial.bfs_growth ~eps:0.03 rng hg ~k);
    ( "random+FM",
      fun hg ~k ->
        let p = Solvers.Initial.random_balanced ~eps:0.03 rng hg ~k in
        ignore
          (Solvers.Refine.refine
             ~config:{ Solvers.Refine.default_config with eps = 0.03 }
             hg p);
        p );
    ( "random+KL",
      fun hg ~k ->
        let p = Solvers.Initial.random_balanced ~eps:0.03 rng hg ~k in
        ignore (Solvers.Kl_swap.refine hg p);
        p );
    ( "multilevel",
      fun hg ~k -> Solvers.Multilevel.partition rng hg ~k );
    ( "multilevel+vcycle",
      fun hg ~k ->
        let p = Solvers.Multilevel.partition rng hg ~k in
        ignore (Solvers.Multilevel.vcycle ~cycles:2 rng hg p);
        p );
    ( "recursive bisection",
      fun hg ~k -> Solvers.Recursive.bisection ~eps:0.03 rng hg ~k );
  ]

let run () =
  let rng = Support.Rng.create 2024 in
  let k = 4 in
  let instances =
    [
      ( "SpMV fine-grain (banded 60, bw 2)",
        Workloads.Spmv.fine_grain (Workloads.Spmv.banded ~size:60 ~bandwidth:2)
      );
      ( "SpMV row-net (random 80x80, 4%)",
        Workloads.Spmv.row_net
          (Workloads.Spmv.random rng ~rows:80 ~cols:80 ~density:0.04) );
      ("2-regular random", Workloads.Rand_hg.two_regular rng ~n:200 ~m:90);
      ( "planted 4 communities",
        Workloads.Rand_hg.planted rng ~n:160 ~m:240 ~k:4 ~locality:0.9
          ~edge_size:4 );
      ( "uniform random",
        Workloads.Rand_hg.uniform rng ~n:120 ~m:180 ~min_size:2 ~max_size:5 );
    ]
  in
  List.iter
    (fun (name, hg) ->
      let rows =
        List.map
          (fun (alg, f) ->
            let part, seconds =
              Obs.Span.timed "exp.e13.solver"
                ~attrs:[ ("algorithm", Obs.Str alg) ]
                (fun () -> f hg ~k)
            in
            [
              Table.Str alg;
              Table.Int (Partition.connectivity_cost hg part);
              Table.Int (Partition.cutnet_cost hg part);
              Table.Float (Partition.imbalance hg part);
              Table.Float (seconds *. 1000.0);
            ])
          (algorithms rng)
      in
      Table.print
        ~title:(Printf.sprintf "E13: %s (n=%d, m=%d, k=%d)" name
                  (Hypergraph.num_nodes hg) (Hypergraph.num_edges hg) k)
        ~anchor:"Sec 1-2: heuristics on practically relevant inputs"
        ~columns:[ "algorithm"; "connectivity"; "cut-net"; "imbalance"; "ms" ]
        rows)
    instances;
  (* Small-instance comparison against the exact optimum. *)
  let rows_small =
    List.map
      (fun seed ->
        let r = Support.Rng.create seed in
        let hg = Workloads.Rand_hg.uniform r ~n:12 ~m:14 ~min_size:2 ~max_size:4 in
        let opt =
          match Solvers.Exact.optimum ~eps:0.0 hg ~k:2 with
          | Some v -> v
          | None -> -1
        in
        let ml =
          Partition.connectivity_cost hg
            (Solvers.Multilevel.partition
               ~config:{ Solvers.Multilevel.default_config with eps = 0.0 }
               r hg ~k:2)
        in
        [
          Table.Int seed;
          Table.Int opt;
          Table.Int ml;
          Table.Bool (ml = opt);
        ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Table.print ~title:"E13b: multilevel vs exact optimum (n = 12, k = 2)"
    ~anchor:"sanity: the heuristic is near-optimal at verifiable scale"
    ~columns:[ "seed"; "optimum"; "multilevel"; "optimal?" ]
    rows_small
