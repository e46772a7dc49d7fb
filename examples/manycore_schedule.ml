(* Manycore scheduling of a computational DAG with NUMA awareness: the
   end-to-end pipeline the paper's models target.

   1. Model an FFT butterfly as a computational DAG, convert it into a
      hyperDAG (Definition 3.2) so that communication is counted exactly.
   2. Partition for a 2 x 2 hierarchical machine (2 sockets, 2 cores each;
      crossing the socket boundary is 6x as expensive — Definition 7.1).
   3. Compare the hierarchy-aware two-step assignment with a hierarchy-
      agnostic one, and check the parallelizability of the result via
      scheduling (Section 5.2).

   Run with:  dune exec examples/manycore_schedule.exe *)

let () =
  let dag = Workloads.Dag_gen.fft ~stages:4 in
  let hg, _generators = Hyperdag.of_dag dag in
  Printf.printf "FFT butterfly: %d nodes, %d hyperedges (one per value)\n"
    (Hypergraph.num_nodes hg) (Hypergraph.num_edges hg);
  Printf.printf "is a hyperDAG: %b\n\n" (Hyperdag.is_hyperdag hg);

  (* The machine: 2 sockets x 2 cores, socket crossing costs g1 = 6. *)
  let topo = Hierarchy.Topology.two_level ~b1:2 ~b2:2 ~g1:6.0 in
  let rng = Support.Rng.create 3 in

  (* Two-step method (Section 7.2): flat partition + optimal placement. *)
  let two = Hierarchy.Two_step.run ~eps:0.1 rng topo hg in
  Printf.printf "two-step   : flat cost %d, hierarchical cost %.1f\n"
    two.Hierarchy.Two_step.flat_cost two.Hierarchy.Two_step.hier_cost;

  (* Hierarchy-aware recursive partitioning (Section 7.1). *)
  let recursive = Solvers.Recursive.hierarchical ~eps:0.1 rng topo hg in
  Printf.printf "recursive  : flat cost %d, hierarchical cost %.1f\n"
    (Partition.connectivity_cost hg recursive)
    (Hierarchy.Hier_cost.cost topo hg recursive);

  (* A bad placement of the same flat parts shows what ignoring the
     hierarchy costs (Lemma 7.3 bounds the damage by g1). *)
  let worst = Hierarchy.Hier_cost.cost_with_assignment topo hg
      two.Hierarchy.Two_step.flat [| 0; 2; 1; 3 |]
  in
  Printf.printf "bad placing: hierarchical cost %.1f (same flat parts)\n\n" worst;

  (* Parallelizability check (Section 5.2): does the partition also allow
     a fast schedule?  For small DAGs we can evaluate mu_p exactly; at FFT
     size we use the greedy bound. *)
  let assignment = Partition.assignment two.Hierarchy.Two_step.hierarchical in
  let sched = Scheduling.Mu.greedy_fixed dag assignment ~k:4 in
  Printf.printf "greedy schedule with these parts: makespan %d (lower bound %d)\n"
    (Scheduling.Schedule.makespan sched)
    (Scheduling.Mu.lower_bound dag ~k:4);
  Printf.printf "schedule valid: %b\n"
    (Scheduling.Schedule.is_valid ~k:4 dag sched);

  (* A deliberately serial partition (Figure 4's trap): balanced but with
     no parallelism at all. *)
  let n = Hyperdag.Dag.num_nodes dag in
  let serial = Partition.of_predicate ~k:4 ~n (fun v -> 4 * v / n) in
  let serial_sched =
    Scheduling.Mu.greedy_fixed dag (Partition.assignment serial) ~k:4
  in
  Printf.printf "\nlayer-blind serial split: balanced %b, makespan %d\n"
    (Partition.is_balanced ~eps:0.1 hg serial)
    (Scheduling.Schedule.makespan serial_sched);
  print_endline
    "(the balanced-but-serial split is exactly the Figure 4 failure mode)"
