(* A tour of the paper's hardness constructions, executed end to end:
   every reduction is built, a source-problem solution is embedded, and
   the resulting partition / schedule / assignment is verified.

   Run with:  dune exec examples/hardness_gallery.exe *)

let section title = Printf.printf "\n--- %s ---\n" title

let () =
  (* Theorem 4.1: SpES -> balanced partitioning. *)
  section "Theorem 4.1: the main inapproximability reduction";
  let g = Npc.Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3); (0, 2) ] in
  let red =
    Reductions.Spes_to_partition.build ~eps:0.0 (Npc.Graph.to_hypergraph g)
      ~k:2 ~p:2
  in
  let hg = Reductions.Spes_to_partition.hypergraph red in
  Printf.printf "SpES instance: 4 vertices, 5 edges, p = 2\n";
  Printf.printf "reduction hypergraph: %d nodes, %d hyperedges\n"
    (Hypergraph.num_nodes hg) (Hypergraph.num_edges hg);
  let sol = match Npc.Spes.exact g ~p:2 with Some s -> s | None -> assert false in
  Printf.printf "SpES optimum: %d vertices cover 2 edges\n"
    (Array.length sol.Npc.Spes.nodes);
  let part = Reductions.Spes_to_partition.embed red [| 0; 1 |] in
  Printf.printf "embedded partition: balanced %b, cost %d\n"
    (Partition.is_balanced ~eps:0.0 hg part)
    (Partition.connectivity_cost hg part);

  (* Lemma C.6 / Appendix C.3: degree 2, hyperDAG. *)
  section "Lemma C.6 + Appendix C.3: Delta = 2 hyperDAG form";
  let tri = Npc.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let d2 =
    Reductions.Spes_to_partition.build_delta2 ~eps:0.0 ~hyperdag:true tri ~p:1
  in
  let hg2 = Reductions.Spes_to_partition.hypergraph d2 in
  Printf.printf "grid construction: %d nodes, max degree %d, hyperDAG %b\n"
    (Hypergraph.num_nodes hg2) (Hypergraph.max_degree hg2)
    (Hyperdag.is_hyperdag hg2);

  (* Theorem 6.4: Orthogonal Vectors. *)
  section "Theorem 6.4: Orthogonal Vectors -> multi-constraint";
  let inst = Npc.Ovp.random ~plant:true (Support.Rng.create 5) ~m:6 ~d:10 in
  let ov = Reductions.Mc_from_ovp.build inst in
  let pair = match Npc.Ovp.find_pair inst with Some p -> p | None -> assert false in
  let part = Reductions.Mc_from_ovp.embed ov pair in
  Printf.printf "m = 6 vectors, d = 10: constraints c = %d\n"
    (Reductions.Mc_from_ovp.num_constraints ov);
  Printf.printf "orthogonal pair (%d, %d) embeds 0-cost feasibly: %b\n"
    (fst pair) (snd pair)
    (Reductions.Mc_from_ovp.is_zero_cost_feasible ov part);

  (* Theorem 5.5: mu_p hardness. *)
  section "Theorem 5.5: fixed-partition scheduling decides 3-Partition";
  let tp = Npc.Three_partition.create [| 3; 3; 4 |] in
  let sched_red = Reductions.Sched_from_three_partition.build tp in
  Printf.printf "chain-graph instance: n = %d, target makespan %d\n"
    (Hyperdag.Dag.num_nodes (Reductions.Sched_from_three_partition.dag sched_red))
    (Reductions.Sched_from_three_partition.target sched_red);
  Printf.printf "perfect schedule exists: %b (3-partition solvable: %b)\n"
    (Reductions.Sched_from_three_partition.perfect_schedule_exists sched_red)
    (Npc.Three_partition.solve tp <> None);

  (* Lemma 7.2: recursive partitioning trap. *)
  section "Lemma 7.2: the nine-block recursive trap";
  let nine = Reductions.Counterexamples.nine_blocks ~unit_size:6 in
  let nh = nine.Reductions.Counterexamples.hypergraph in
  let direct = Reductions.Counterexamples.nine_blocks_direct nine in
  Printf.printf "n = %d: direct 4-way cost %d; any second recursive split >= %d\n"
    (Hypergraph.num_nodes nh)
    (Partition.connectivity_cost nh direct)
    ((2 * 6) - 1);

  (* Theorem 7.4: the two-step method's price. *)
  section "Theorem 7.4: ignoring the hierarchy costs a g1 factor";
  let star = Reductions.Counterexamples.star ~k:4 ~m:30 ~unit_size:2 in
  let sh = star.Reductions.Counterexamples.hypergraph in
  let topo = Hierarchy.Topology.two_level ~b1:2 ~b2:2 ~g1:10.0 in
  let flat = Reductions.Counterexamples.star_flat_optimum star in
  let hier = Reductions.Counterexamples.star_hier_optimum star in
  let two_flat = Hierarchy.Two_step.of_flat topo sh flat in
  let two_hier = Hierarchy.Two_step.of_flat topo sh hier in
  Printf.printf "two-step (flat-optimal) hierarchical cost: %.0f\n"
    two_flat.Hierarchy.Two_step.hier_cost;
  Printf.printf "hierarchy-aware solution cost            : %.0f\n"
    two_hier.Hierarchy.Two_step.hier_cost;
  Printf.printf "ratio %.2f vs the (b1-1)/b1 * g1 = %.1f prediction\n"
    (two_flat.Hierarchy.Two_step.hier_cost
    /. two_hier.Hierarchy.Two_step.hier_cost)
    5.0;

  (* Theorem 7.5: hierarchy assignment. *)
  section "Theorem 7.5: assignment easy at b2 = 2, hard at b2 = 3";
  let rng = Support.Rng.create 11 in
  let ahg = Workloads.Rand_hg.uniform rng ~n:24 ~m:30 ~min_size:2 ~max_size:4 in
  let apart = Partition.create ~k:8 (Array.init 24 (fun v -> v mod 8)) in
  let atopo = Hierarchy.Topology.two_level ~b1:4 ~b2:2 ~g1:4.0 in
  let ex = Hierarchy.Assignment.exact atopo ahg apart in
  let mt = Hierarchy.Assignment.matching_b2_2 atopo ahg apart in
  Printf.printf "b2 = 2: matching cost %.1f = exact cost %.1f\n"
    mt.Hierarchy.Assignment.cost ex.Hierarchy.Assignment.cost;
  let tdm = Npc.Three_dm.random_yes (Support.Rng.create 2) ~q:3 ~extra:4 in
  let a3 = Reductions.Assignment_from_three_dm.build tdm in
  Printf.printf "b2 = 3: 3DM decided through assignment: %b (expected %b)\n"
    (Reductions.Assignment_from_three_dm.matching_exists_via_assignment a3)
    (Npc.Three_dm.has_perfect_matching tdm)
