(* Aggregated alcotest runner for every library in the repository. *)

let () =
  (* Logs go under the repository's own _build, whatever the working
     directory. *)
  let log_dir =
    Option.map
      (fun root -> Filename.concat root (Filename.concat "_build" "_tests"))
      (Repo_file.repo_root ())
  in
  Alcotest.run ?log_dir "hypartition"
    [
      ("support", Test_support.suite);
      ("obs", Test_obs.suite);
      ("hypergraph", Test_hypergraph.suite);
      ("partition", Test_partition.suite);
      ("hyperdag", Test_hyperdag.suite);
      ("solvers", Test_solvers.suite);
      ("scheduling", Test_scheduling.suite);
      ("matching", Test_matching.suite);
      ("npc", Test_npc.suite);
      ("hierarchy", Test_hierarchy.suite);
      ("reductions", Test_reductions.suite);
      ("workloads", Test_workloads.suite);
      ("extensions", Test_extensions.suite);
      ("properties", Test_properties.suite);
      ("corpus", Test_corpus.suite);
      ("experiments", Test_experiments.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("coverage", Test_coverage.suite);
      ("analysis", Test_analysis.suite);
      ("lint", Test_lint.suite);
      ("analyze", Test_analyze.suite);
      ("engine", Test_engine.suite);
      ("server", Test_server.suite);
      (* Last on purpose: the parallel suite spawns domains, and the
         runtime refuses Unix.fork in a process that ever created one —
         so every fork-based suite (engine, server) must run first. *)
      ("parallel", Test_parallel.suite);
    ]
