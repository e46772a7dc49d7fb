(* Tests for the extension modules: KL swap refinement, the multi-constraint
   XP algorithm (Lemma 6.2), the Lemma D.1 and Appendix C.5 reductions, and
   DAG I/O. *)

module H = Hypergraph
module P = Partition
module R = Reductions

(* KL swap refinement -------------------------------------------------------- *)

let test_kl_preserves_balance_exactly () =
  let rng = Support.Rng.create 8 in
  for _ = 1 to 10 do
    let hg = Workloads.Rand_hg.uniform rng ~n:20 ~m:25 ~min_size:2 ~max_size:4 in
    let part = Solvers.Initial.random_balanced ~eps:0.0 rng hg ~k:2 in
    let before_weights = P.part_weights hg part in
    let before_cost = P.connectivity_cost hg part in
    let after = Solvers.Kl_swap.refine hg part in
    Alcotest.(check (array int)) "weights unchanged" before_weights
      (P.part_weights hg part);
    Alcotest.(check bool) "never worse" true (after <= before_cost);
    Alcotest.(check int) "returned cost correct" (P.connectivity_cost hg part)
      after
  done

let test_kl_improves_obvious_instance () =
  (* Two blocks with an interleaved start: swaps must help where single
     moves cannot (eps = 0). *)
  let b = H.Builder.create () in
  let b1 = Hypergraph.Gadgets.block b ~size:6 in
  let b2 = Hypergraph.Gadgets.block b ~size:6 in
  ignore (H.Builder.add_edge b [| b1.(0); b2.(0) |]);
  let hg = H.Builder.build b in
  let colors = Array.init 12 (fun v -> v mod 2) in
  let part = P.create ~k:2 colors in
  let before = P.connectivity_cost hg part in
  let after = Solvers.Kl_swap.refine hg part in
  Alcotest.(check bool) "strictly improves" true (after < before);
  Alcotest.(check bool) "still perfectly balanced" true
    (P.is_balanced ~eps:0.0 hg part)

(* Multi-constraint XP (Lemma 6.2) ------------------------------------------- *)

(* The least connectivity cost under the class constraints alone: at k = 2,
   eps = 1 leaves the overall balance slack. *)
let brute_force_mc_optimum hg ~eps mc =
  Option.map
    (fun r -> r.Solvers.Exact.cost)
    (Solvers.Exact.brute_force ~eps:1.0
       ~feasible:(P.Multi_constraint.feasible ~eps mc)
       (Metric P.Connectivity) hg ~k:2)

let test_xp_multi_matches_brute_force () =
  let rng = Support.Rng.create 13 in
  for _ = 1 to 6 do
    let n = 6 in
    let hg = Workloads.Rand_hg.uniform rng ~n ~m:4 ~min_size:2 ~max_size:3 in
    let mc = P.Multi_constraint.create [| [| 0; 1 |]; [| 2; 3; 4; 5 |] |] in
    let reference = brute_force_mc_optimum hg ~eps:0.0 mc in
    let via_xp limit =
      Solvers.Xp.decision_multi ~eps:0.0 hg ~k:2 ~constraints:mc
        ~cost_limit:limit
    in
    match reference with
    | None ->
        Alcotest.(check bool) "XP agrees: infeasible" true (via_xp 3 = None)
    | Some opt when opt <= 3 -> (
        match via_xp opt with
        | None -> Alcotest.fail "XP missed the optimum"
        | Some part ->
            Alcotest.(check bool) "witness feasible" true
              (P.Multi_constraint.feasible ~eps:0.0 mc part);
            Alcotest.(check bool) "witness cost" true
              (P.connectivity_cost hg part <= opt);
            if opt > 0 then
              Alcotest.(check bool) "XP fails below optimum" true
                (via_xp (opt - 1) = None))
    | Some _ -> ()
  done

(* Lemma D.1: multi-constraint -> standard k-section --------------------------- *)

let test_mc_to_standard_roundtrip () =
  (* 4 nodes, two classes of 2 (block sizes stay exact-solver friendly:
     m1 = 5, m2 = 20, n' = 50). *)
  let hg = H.of_edges ~n:4 [| [| 0; 2 |]; [| 1; 3 |]; [| 0; 1 |] |] in
  let mc = P.Multi_constraint.create [| [| 0; 1 |]; [| 2; 3 |] |] in
  let red = R.Mc_to_standard.build hg mc ~k:2 in
  let transformed = R.Mc_to_standard.transformed red in
  let reference =
    match brute_force_mc_optimum hg ~eps:0.0 mc with
    | Some v -> v
    | None -> Alcotest.fail "MC instance feasible"
  in
  (* Solve the transformed k-section (bounded by the reference) and map
     back. *)
  (match
     Solvers.Exact.solve ~eps:0.0 ~upper_bound:reference transformed ~k:2
   with
  | None -> Alcotest.fail "transformed reaches the MC optimum (Lemma D.1)"
  | Some { Solvers.Exact.part = section; cost } ->
      Alcotest.(check int) "OPT agrees (Lemma D.1)" reference cost;
      let back = R.Mc_to_standard.restrict red section in
      Alcotest.(check bool) "restriction satisfies the constraints" true
        (P.Multi_constraint.feasible ~eps:0.0 mc back);
      Alcotest.(check int) "restriction preserves cost" cost
        (P.connectivity_cost hg back));
  (* ... and no transformed section beats the MC optimum. *)
  Alcotest.(check bool) "no cheaper section" false
    (Solvers.Exact.decision transformed ~k:2 ~cost_limit:(reference - 1));
  (* Forward mapping. *)
  let forward_src =
    let found = ref None in
    Support.Util.iter_tuples ~base:2 ~len:4 (fun colors ->
        if !found = None then begin
          let part = P.create ~k:2 (Array.copy colors) in
          if
            P.Multi_constraint.feasible ~eps:0.0 mc part
            && P.is_balanced ~eps:0.0 hg part
          then found := Some part
        end);
    match !found with Some p -> p | None -> Alcotest.fail "feasible exists"
  in
  let extended = R.Mc_to_standard.extend red forward_src in
  Alcotest.(check bool) "extension is a k-section" true
    (P.is_balanced ~eps:0.0 transformed extended);
  Alcotest.(check int) "extension preserves cost"
    (P.connectivity_cost hg forward_src)
    (P.connectivity_cost transformed extended)

let test_mc_to_standard_validation () =
  let hg = H.of_edges ~n:3 [| [| 0; 1 |] |] in
  let mc = P.Multi_constraint.create [| [| 0; 1; 2 |] |] in
  Alcotest.check_raises "class size must divide k"
    (Invalid_argument "Mc_to_standard.build: |V_i| must be divisible by k")
    (fun () -> ignore (R.Mc_to_standard.build hg mc ~k:2))

(* Appendix C.5: MpU reduction -------------------------------------------------- *)

let test_mpu_reduction () =
  (* MpU instance: 4 hyperedges over 5 nodes, p = 2. *)
  let inst =
    H.of_edges ~n:5 [| [| 0; 1 |]; [| 1; 2 |]; [| 2; 3; 4 |]; [| 0; 4 |] |]
  in
  let red = R.Spes_to_partition.build ~eps:0.0 inst ~k:2 ~p:2 in
  let h = R.Spes_to_partition.hypergraph red in
  let opt =
    match Npc.Mpu.exact inst ~p:2 with Some s -> s | None -> assert false
  in
  (* Embed the optimal selection: cost = union size. *)
  let part = R.Spes_to_partition.embed red opt.Npc.Mpu.edges in
  Alcotest.(check bool) "embedded balanced" true (P.is_balanced ~eps:0.0 h part);
  Alcotest.(check int) "embedded cost = union size" opt.Npc.Mpu.union_size
    (P.connectivity_cost h part);
  (* Extraction returns p edges whose union is at least the optimum. *)
  let chosen = R.Spes_to_partition.extract red part in
  Alcotest.(check int) "p edges" 2 (Array.length chosen);
  Alcotest.(check bool) "union at least optimal" true
    (R.Spes_to_partition.union_size red chosen >= opt.Npc.Mpu.union_size)

(* Appendix C.4: k >= 3 generalization --------------------------------------- *)

let test_spes_k3 () =
  let g = Npc.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let red =
    R.Spes_to_partition.build ~eps:0.0 (Npc.Graph.to_hypergraph g) ~k:3 ~p:1
  in
  let h = R.Spes_to_partition.hypergraph red in
  let part = R.Spes_to_partition.embed red [| 1 |] in
  Alcotest.(check bool) "embedded 3-way balanced" true
    (P.is_balanced ~eps:0.0 h part);
  Alcotest.(check int) "cost = covered vertices" 2
    (P.connectivity_cost h part);
  Alcotest.(check int) "three colors used" 3 (P.nonempty_parts h part);
  let chosen = R.Spes_to_partition.extract red part in
  Alcotest.(check int) "extracts p = 1 edge" 1 (Array.length chosen);
  Alcotest.(check int) "objective preserved" 2
    (R.Spes_to_partition.union_size red chosen)

let test_spes_k3_optimum () =
  (* The 3-way optimum of the reduction instance matches OPT_SpES. *)
  let g = Npc.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let red =
    R.Spes_to_partition.build ~eps:0.0 (Npc.Graph.to_hypergraph g) ~k:3 ~p:1
  in
  let h = R.Spes_to_partition.hypergraph red in
  Alcotest.(check bool) "decision at OPT = 2" true
    (Solvers.Exact.decision h ~k:3 ~cost_limit:2);
  Alcotest.(check bool) "no solution below OPT" false
    (Solvers.Exact.decision h ~k:3 ~cost_limit:1)

(* V-cycle --------------------------------------------------------------------- *)

let test_vcycle_improves_or_keeps () =
  let rng = Support.Rng.create 33 in
  for _ = 1 to 5 do
    let hg =
      Workloads.Rand_hg.planted rng ~n:120 ~m:180 ~k:4 ~locality:0.85
        ~edge_size:3
    in
    let part = Solvers.Initial.random_balanced ~eps:0.03 rng hg ~k:4 in
    ignore
      (Solvers.Refine.refine
         ~config:{ Solvers.Refine.default_config with eps = 0.03 }
         hg part);
    let before = P.connectivity_cost hg part in
    let after = Solvers.Multilevel.vcycle ~cycles:2 rng hg part in
    Alcotest.(check bool) "vcycle never worse" true (after <= before);
    Alcotest.(check bool) "still balanced" true
      (P.is_balanced ~eps:0.03 hg part);
    Alcotest.(check int) "returned cost correct" (P.connectivity_cost hg part)
      after
  done

(* Constrained solver ----------------------------------------------------------- *)

let test_constrained_layerwise_two_branch () =
  (* Figure 6: the layer-wise solver must find a feasible solution of
     Theta(b) cost (the forced optimum magnitude). *)
  let t = R.Counterexamples.two_branch ~b:8 in
  let dag = t.R.Counterexamples.dag in
  let hg = Hyperdag.hypergraph_of_dag dag in
  let layers = Hyperdag.Layering.earliest_groups dag in
  let inst =
    Solvers.Constrained.of_layers ~variant:P.Relaxed ~eps:0.0 ~k:2 layers
      ~n:(H.num_nodes hg)
  in
  let part = Solvers.Constrained.solve (Support.Rng.create 3) inst hg ~k:2 in
  Alcotest.(check bool) "layer-wise feasible" true
    (Solvers.Constrained.respects inst ~k:2 part);
  Alcotest.(check bool) "matches Layerwise.feasible" true
    (P.Layerwise.feasible ~variant:P.Relaxed ~eps:0.0 layers part);
  let cost = P.connectivity_cost hg part in
  Alcotest.(check bool) "cost within Theta(b)" true (cost >= 2 && cost <= 14)

let test_constrained_multi_constraint () =
  let rng = Support.Rng.create 7 in
  for _ = 1 to 10 do
    let hg = Workloads.Rand_hg.uniform rng ~n:16 ~m:20 ~min_size:2 ~max_size:4 in
    let mc =
      P.Multi_constraint.create [| [| 0; 1; 2; 3 |]; [| 4; 5; 6; 7 |] |]
    in
    let inst =
      Solvers.Constrained.of_multi_constraint ~eps:0.0 ~k:2 mc ~n:16
    in
    let part = Solvers.Constrained.solve rng inst hg ~k:2 in
    Alcotest.(check bool) "constraints satisfied" true
      (P.Multi_constraint.feasible ~eps:0.0 mc part)
  done

let test_constrained_local_search_monotone () =
  let rng = Support.Rng.create 9 in
  let hg = Workloads.Rand_hg.uniform rng ~n:20 ~m:24 ~min_size:2 ~max_size:4 in
  let layers = [| Array.init 10 Fun.id; Array.init 10 (fun i -> 10 + i) |] in
  let inst = Solvers.Constrained.of_layers ~eps:0.0 ~k:2 layers ~n:20 in
  let part = Solvers.Constrained.greedy rng inst hg ~k:2 in
  let before = P.connectivity_cost hg part in
  let after = Solvers.Constrained.local_search inst hg part in
  Alcotest.(check bool) "local search never worse" true (after <= before);
  Alcotest.(check bool) "still respects caps" true
    (Solvers.Constrained.respects inst ~k:2 part)

(* Exact solver with class capacities ------------------------------------------- *)

let test_exact_constrained_matches_brute_force () =
  let rng = Support.Rng.create 11 in
  for _ = 1 to 8 do
    let n = 8 in
    let hg = Workloads.Rand_hg.uniform rng ~n ~m:8 ~min_size:2 ~max_size:3 in
    let mc = P.Multi_constraint.create [| [| 0; 1; 2; 3 |]; [| 4; 5 |] |] in
    let inst = Solvers.Constrained.of_multi_constraint ~eps:0.0 ~k:2 mc ~n in
    let via =
      match Solvers.Exact.solve ~eps:0.5 ~constrained:inst hg ~k:2 with
      | Some { Solvers.Exact.part; cost } ->
          Alcotest.(check bool) "witness satisfies constraints" true
            (P.Multi_constraint.feasible ~eps:0.0 mc part);
          Some cost
      | None -> None
    in
    (* The reference under the same loose overall balance (eps 0.5 on all
       of V) and the class constraints. *)
    let reference_loose =
      Option.map
        (fun r -> r.Solvers.Exact.cost)
        (Solvers.Exact.brute_force ~eps:0.5
           ~feasible:(P.Multi_constraint.feasible ~eps:0.0 mc)
           (Metric P.Connectivity) hg ~k:2)
    in
    Alcotest.(check (option int)) "exact+constrained = brute force"
      reference_loose via
  done

(* DAG I/O ----------------------------------------------------------------------- *)

let test_dag_io_roundtrip () =
  let rng = Support.Rng.create 5 in
  for _ = 1 to 10 do
    let dag = Workloads.Dag_gen.random rng ~n:10 ~edge_probability:0.3 in
    let dag' = Hyperdag.Dag_io.of_string (Hyperdag.Dag_io.to_string dag) in
    Alcotest.(check int) "n" (Hyperdag.Dag.num_nodes dag)
      (Hyperdag.Dag.num_nodes dag');
    Alcotest.(check bool) "same edge set" true
      (List.sort Support.Order.int_pair (Hyperdag.Dag.edges dag)
      = List.sort Support.Order.int_pair (Hyperdag.Dag.edges dag'))
  done

let test_dag_io_parse () =
  let dag = Hyperdag.Dag_io.of_string "% comment\n3 2\n0 1\n1 2\n" in
  Alcotest.(check int) "nodes" 3 (Hyperdag.Dag.num_nodes dag);
  Alcotest.(check bool) "edge" true (Hyperdag.Dag.has_edge dag 1 2);
  (try
     ignore (Hyperdag.Dag_io.of_string "2 5\n0 1\n");
     Alcotest.fail "expected truncation failure"
   with Failure _ -> ())

let test_dag_dot () =
  let dag = Workloads.Dag_gen.chain 3 in
  let dot = Hyperdag.Dag_io.to_dot ~parts:[| 0; 1; 0 |] dag in
  Alcotest.(check bool) "digraph" true (String.length dot > 0);
  Alcotest.(check bool) "has arrow" true
    (let rec contains i =
       i + 2 <= String.length dot && (String.sub dot i 2 = "->" || contains (i + 1))
     in
     contains 0)

let suite =
  [
    Alcotest.test_case "KL preserves balance" `Quick
      test_kl_preserves_balance_exactly;
    Alcotest.test_case "KL improves at eps=0" `Quick
      test_kl_improves_obvious_instance;
    Alcotest.test_case "XP multi = brute force (Lemma 6.2)" `Slow
      test_xp_multi_matches_brute_force;
    Alcotest.test_case "Lemma D.1 roundtrip" `Slow test_mc_to_standard_roundtrip;
    Alcotest.test_case "Lemma D.1 validation" `Quick
      test_mc_to_standard_validation;
    Alcotest.test_case "App C.5 MpU reduction" `Quick test_mpu_reduction;
    Alcotest.test_case "App C.4 k=3 embed" `Quick test_spes_k3;
    Alcotest.test_case "App C.4 k=3 optimum" `Slow test_spes_k3_optimum;
    Alcotest.test_case "v-cycle" `Quick test_vcycle_improves_or_keeps;
    Alcotest.test_case "exact with class caps = brute force" `Slow
      test_exact_constrained_matches_brute_force;
    Alcotest.test_case "constrained: two-branch layers" `Quick
      test_constrained_layerwise_two_branch;
    Alcotest.test_case "constrained: multi-constraint" `Quick
      test_constrained_multi_constraint;
    Alcotest.test_case "constrained: monotone search" `Quick
      test_constrained_local_search_monotone;
    Alcotest.test_case "DAG IO roundtrip" `Quick test_dag_io_roundtrip;
    Alcotest.test_case "DAG IO parse" `Quick test_dag_io_parse;
    Alcotest.test_case "DAG DOT export" `Quick test_dag_dot;
  ]
