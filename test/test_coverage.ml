(* Additional coverage: multi-way FM, full coarsening hierarchies, boundary
   cases of the Lemma D.2 machinery, eps > 0 reduction variants, and the
   two-step driver. *)

module H = Hypergraph
module P = Partition
module R = Reductions

let test_fm_k3_balanced () =
  let rng = Support.Rng.create 51 in
  for _ = 1 to 10 do
    let hg = Workloads.Rand_hg.uniform rng ~n:30 ~m:40 ~min_size:2 ~max_size:4 in
    let part = Solvers.Initial.random_balanced ~eps:0.1 rng hg ~k:3 in
    let before = P.connectivity_cost hg part in
    let after =
      Solvers.Refine.refine
        ~config:{ Solvers.Refine.default_config with eps = 0.1 }
        hg part
    in
    Alcotest.(check bool) "k=3 FM never worse" true (after <= before);
    Alcotest.(check bool) "k=3 FM keeps balance" true
      (P.is_balanced ~eps:0.1 hg part)
  done

let test_full_hierarchy_projection () =
  (* Projecting any coarse partition through the whole hierarchy preserves
     connectivity cost level by level. *)
  let rng = Support.Rng.create 53 in
  let hg = Workloads.Rand_hg.uniform rng ~n:200 ~m:300 ~min_size:2 ~max_size:5 in
  let coarsest, levels = Solvers.Coarsen.hierarchy rng hg ~k:4 ~stop_nodes:30 in
  Alcotest.(check bool) "hierarchy shrinks" true
    (Hypergraph.num_nodes coarsest < 200);
  let levels = Array.of_list levels in
  let part = ref (P.random rng ~k:4 ~n:(Hypergraph.num_nodes coarsest)) in
  let cost = P.connectivity_cost coarsest !part in
  for d = Array.length levels - 1 downto 0 do
    part := Solvers.Coarsen.project levels.(d) !part;
    let fine = if d = 0 then hg else levels.(d - 1).Solvers.Coarsen.coarse in
    Alcotest.(check int) "projection preserves cost at every level" cost
      (P.connectivity_cost fine !part)
  done

let test_mc_builder_boundaries () =
  (* At_most_red 0: the subset must be entirely blue. *)
  let b = H.Builder.create () in
  let s = H.Builder.add_nodes b 2 in
  let mc =
    R.Mc_builder.finalize b
      [ { R.Mc_builder.subset = s; bound = R.Mc_builder.At_most_red 0 } ]
  in
  let h = mc.R.Mc_builder.hypergraph in
  let check pattern expected =
    let colors = Array.make (H.num_nodes h) 0 in
    R.Mc_builder.paint_anchors mc colors;
    Array.iteri (fun i c -> colors.(s.(i)) <- c) pattern;
    Alcotest.(check bool)
      (Fmt.str "pattern %d%d" pattern.(0) pattern.(1))
      expected
      (R.Mc_builder.feasible mc (P.create ~k:2 (Array.copy colors)))
  in
  check [| 0; 0 |] true;
  check [| 1; 0 |] false;
  check [| 1; 1 |] false;
  (* At_least_red |S|: entirely red. *)
  let b2 = H.Builder.create () in
  let s2 = H.Builder.add_nodes b2 2 in
  let mc2 =
    R.Mc_builder.finalize b2
      [ { R.Mc_builder.subset = s2; bound = R.Mc_builder.At_least_red 2 } ]
  in
  let h2 = mc2.R.Mc_builder.hypergraph in
  let check2 pattern expected =
    let colors = Array.make (H.num_nodes h2) 0 in
    R.Mc_builder.paint_anchors mc2 colors;
    Array.iteri (fun i c -> colors.(s2.(i)) <- c) pattern;
    Alcotest.(check bool)
      (Fmt.str "at-least pattern %d%d" pattern.(0) pattern.(1))
      expected
      (R.Mc_builder.feasible mc2 (P.create ~k:2 (Array.copy colors)))
  in
  check2 [| 1; 1 |] true;
  check2 [| 1; 0 |] false

let test_delta2_with_positive_eps () =
  let g = Npc.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let red = R.Spes_to_partition.build_delta2 ~eps:0.5 g ~p:1 in
  let h = R.Spes_to_partition.hypergraph red in
  let part = R.Spes_to_partition.embed red [| 1 |] in
  Alcotest.(check bool) "eps=0.5 embed balanced" true
    (P.is_balanced ~eps:0.5 h part);
  Alcotest.(check int) "cost = covered" 2 (P.connectivity_cost h part);
  Alcotest.(check int) "still degree 2" 2 (H.max_degree h)

let test_spes_with_positive_eps () =
  let g = Npc.Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let red =
    R.Spes_to_partition.build ~eps:0.25 (Npc.Graph.to_hypergraph g) ~k:2 ~p:2
  in
  let h = R.Spes_to_partition.hypergraph red in
  let part = R.Spes_to_partition.embed red [| 0; 2 |] in
  Alcotest.(check bool) "eps=0.25 embed balanced" true
    (P.is_balanced ~eps:0.25 h part);
  Alcotest.(check int) "cost = covered (disjoint edges)" 4
    (P.connectivity_cost h part)

let test_two_step_run_driver () =
  let rng = Support.Rng.create 55 in
  let hg = Workloads.Rand_hg.planted rng ~n:64 ~m:96 ~k:4 ~locality:0.9
      ~edge_size:3
  in
  let topo = Hierarchy.Topology.two_level ~b1:2 ~b2:2 ~g1:4.0 in
  let r = Hierarchy.Two_step.run (Support.Rng.create 1) topo hg in
  Alcotest.(check int) "flat arity" 4 (P.k r.Hierarchy.Two_step.flat);
  Alcotest.(check bool) "hier cost within Lemma 7.3 sandwich" true
    (let lo, hi =
       Hierarchy.Hier_cost.connectivity_bounds topo hg r.Hierarchy.Two_step.flat
     in
     r.Hierarchy.Two_step.hier_cost >= lo -. 1e-9
     && r.Hierarchy.Two_step.hier_cost <= hi +. 1e-9);
  (* The leaf assignment is a bijection. *)
  let sorted = Array.copy r.Hierarchy.Two_step.leaf_of_part in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "bijection" (Array.init 4 Fun.id) sorted

let test_matching_guard () =
  Alcotest.check_raises "k > 24 rejected"
    (Invalid_argument "Pairing.exact_max_weight: k > 24") (fun () ->
      ignore (Pairing.exact_max_weight ~k:26 (fun _ _ -> 0)))

let test_xp_multi_infeasible () =
  (* Constraint that can never be satisfied at eps = 0 with k = 2: a class
     of odd size has no exactly-balanced coloring under Strict capacity. *)
  let hg = H.of_edges ~n:3 [| [| 0; 1 |] |] in
  let mc = P.Multi_constraint.create [| [| 0; 1; 2 |] |] in
  Alcotest.(check bool) "infeasible detected" true
    (Solvers.Xp.decision_multi ~eps:0.0 hg ~k:2 ~constraints:mc ~cost_limit:2
    = None)

let test_sched_reduction_rooted_classes () =
  (* The rooted variant stays an out-forest and bounded fan-out from the
     root; the unrooted one is also level-order. *)
  let inst = Npc.Three_partition.create [| 3; 3; 4 |] in
  let red = R.Sched_from_three_partition.build inst in
  Alcotest.(check bool) "unrooted is level-order" true
    (Hyperdag.Dag.is_level_order (R.Sched_from_three_partition.dag red))

let suite =
  [
    Alcotest.test_case "FM at k=3" `Quick test_fm_k3_balanced;
    Alcotest.test_case "full hierarchy projection" `Quick
      test_full_hierarchy_projection;
    Alcotest.test_case "Lemma D.2 boundaries" `Quick test_mc_builder_boundaries;
    Alcotest.test_case "Delta=2 with eps > 0" `Quick
      test_delta2_with_positive_eps;
    Alcotest.test_case "SpES reduction with eps > 0" `Quick
      test_spes_with_positive_eps;
    Alcotest.test_case "two-step driver" `Quick test_two_step_run_driver;
    Alcotest.test_case "matching size guard" `Quick test_matching_guard;
    Alcotest.test_case "XP multi infeasible" `Quick test_xp_multi_infeasible;
    Alcotest.test_case "Thm 5.5 DAG is level-order" `Quick
      test_sched_reduction_rooted_classes;
  ]
