(* Tests for the hierarchical setting (Section 7): topologies, the
   Definition 7.1 cost function, hierarchy assignment, the two-step method,
   recursive partitioning and Steiner costs on arbitrary topologies. *)

module H = Hypergraph
module P = Partition
module T = Hierarchy.Topology
module HC = Hierarchy.Hier_cost

let topo22 g1 = T.two_level ~b1:2 ~b2:2 ~g1

let test_topology_basics () =
  let t = topo22 4.0 in
  Alcotest.(check int) "depth" 2 (T.depth t);
  Alcotest.(check int) "leaves" 4 (T.num_leaves t);
  Alcotest.(check (float 1e-9)) "g1" 4.0 (T.cost_of_level t 1);
  Alcotest.(check (float 1e-9)) "g2" 1.0 (T.cost_of_level t 2);
  (* Leaves 0,1 under one level-1 node; 2,3 under the other. *)
  Alcotest.(check int) "lca siblings" 2 (T.lca_level t 0 1);
  Alcotest.(check int) "lca across top" 1 (T.lca_level t 1 2);
  Alcotest.(check (float 1e-9)) "transfer cheap" 1.0 (T.transfer_cost t 2 3);
  Alcotest.(check (float 1e-9)) "transfer expensive" 4.0 (T.transfer_cost t 0 3)

let test_topology_validation () =
  Alcotest.check_raises "increasing costs"
    (Invalid_argument "Topology.create: costs must be non-increasing")
    (fun () -> ignore (T.create ~branching:[| 2; 2 |] ~costs:[| 1.0; 2.0 |]));
  Alcotest.check_raises "g_d must be 1"
    (Invalid_argument "Topology.create: g_d must be 1") (fun () ->
      ignore (T.create ~branching:[| 2 |] ~costs:[| 3.0 |]));
  Alcotest.check_raises "branching >= 2"
    (Invalid_argument "Topology.create: branching >= 2") (fun () ->
      ignore (T.create ~branching:[| 1; 4 |] ~costs:[| 2.0; 1.0 |]))

let test_uniform_binary () =
  let t = T.uniform_binary ~depth:3 ~g:3.0 in
  Alcotest.(check int) "k = 8" 8 (T.num_leaves t);
  Alcotest.(check (float 1e-9)) "g1 = 9" 9.0 (T.cost_of_level t 1);
  Alcotest.(check (float 1e-9)) "g3 = 1" 1.0 (T.cost_of_level t 3)

let test_edge_cost_paper_example () =
  (* Section 7: an edge meeting all 4 parts of a (2,2)-hierarchy costs
     g1 + 2 * g2. *)
  let t = topo22 5.0 in
  Alcotest.(check (float 1e-9)) "g1 + 2*g2" 7.0
    (HC.edge_cost t [ 0; 1; 2; 3 ]);
  Alcotest.(check (float 1e-9)) "siblings" 1.0 (HC.edge_cost t [ 0; 1 ]);
  Alcotest.(check (float 1e-9)) "across top" 5.0 (HC.edge_cost t [ 0; 2 ]);
  Alcotest.(check (float 1e-9)) "three parts" 6.0 (HC.edge_cost t [ 0; 1; 2 ]);
  Alcotest.(check (float 1e-9)) "uncut" 0.0 (HC.edge_cost t [ 1 ])

let test_flat_topology_is_connectivity () =
  (* Depth 1: the hierarchical cost is the connectivity metric. *)
  let rng = Support.Rng.create 3 in
  let h =
    H.of_edges ~n:8
      (Array.init 6 (fun _ -> Support.Rng.sample_distinct rng ~n:8 ~k:3))
  in
  let t = T.flat 4 in
  for _ = 1 to 10 do
    let p = P.random rng ~k:4 ~n:8 in
    Alcotest.(check (float 1e-9)) "flat = connectivity"
      (float_of_int (P.connectivity_cost h p))
      (HC.cost t h p)
  done

let test_hier_cost_within_bounds () =
  (* connectivity <= hierarchical <= g1 * connectivity (Lemma 7.3). *)
  let rng = Support.Rng.create 5 in
  let h =
    H.of_edges ~n:12
      (Array.init 10 (fun _ -> Support.Rng.sample_distinct rng ~n:12 ~k:4))
  in
  let t = topo22 6.0 in
  for _ = 1 to 20 do
    let p = P.random rng ~k:4 ~n:12 in
    let lo, hi = HC.connectivity_bounds t h p in
    let c = HC.cost t h p in
    Alcotest.(check bool) "lower bound" true (c >= lo -. 1e-9);
    Alcotest.(check bool) "upper bound" true (c <= hi +. 1e-9)
  done

(* Assignment ----------------------------------------------------------------- *)

let star_hypergraph () =
  (* Parts 0-3 pre-colored: heavy traffic between parts 0 and 1, light
     between 2 and 3.  8 nodes, 2 per part. *)
  let b = H.Builder.create () in
  let nodes = H.Builder.add_nodes b 8 in
  (* 5 edges between part 0 (nodes 0,1) and part 1 (nodes 2,3). *)
  for _ = 1 to 5 do
    ignore (H.Builder.add_edge b [| nodes.(0); nodes.(2) |])
  done;
  ignore (H.Builder.add_edge b [| nodes.(4); nodes.(6) |]);
  let h = H.Builder.build b in
  let part = P.create ~k:4 [| 0; 0; 1; 1; 2; 2; 3; 3 |] in
  (h, part)

let test_assignment_exact () =
  let h, part = star_hypergraph () in
  let t = topo22 10.0 in
  let r = Hierarchy.Assignment.exact t h part in
  (* Optimal: parts 0,1 siblings and 2,3 siblings: cost 5 + 1 = 6. *)
  Alcotest.(check (float 1e-9)) "optimal assignment" 6.0 r.Hierarchy.Assignment.cost;
  let leaf = r.Hierarchy.Assignment.leaf_of_part in
  Alcotest.(check int) "0 and 1 are siblings" (leaf.(0) / 2) (leaf.(1) / 2)

let test_assignment_methods_agree () =
  let rng = Support.Rng.create 11 in
  for _ = 1 to 10 do
    let h =
      H.of_edges ~n:12
        (Array.init 10 (fun _ ->
             Support.Rng.sample_distinct rng ~n:12 ~k:(2 + Support.Rng.int rng 3)))
    in
    let part = P.create ~k:4 (Array.init 12 (fun v -> v mod 4)) in
    let t = topo22 4.0 in
    let ex = Hierarchy.Assignment.exact t h part in
    let mt = Hierarchy.Assignment.matching_b2_2 t h part in
    Alcotest.(check (float 1e-9)) "matching = exact (Lemma H.1)"
      ex.Hierarchy.Assignment.cost mt.Hierarchy.Assignment.cost;
    let ls = Hierarchy.Assignment.local_search t h part in
    Alcotest.(check bool) "local search >= exact" true
      (ls.Hierarchy.Assignment.cost >= ex.Hierarchy.Assignment.cost -. 1e-9)
  done

(* The reference: on the contracted instance the brute force's balanced
   colorings at eps = 0 are exactly the k! assignments. *)
let test_assignment_exact_brute_force () =
  let rng = Support.Rng.create 13 in
  List.iter
    (fun t ->
      let k = T.num_leaves t in
      for _ = 1 to 4 do
        let n = 2 * k in
        let h =
          H.of_edges ~n
            ~edge_weights:(Array.init 9 (fun _ -> 1 + Support.Rng.int rng 3))
            (Array.init 9 (fun _ ->
                 Support.Rng.sample_distinct rng ~n
                   ~k:(2 + Support.Rng.int rng 3)))
        in
        let part = P.random rng ~k ~n in
        let ex = Hierarchy.Assignment.exact t h part in
        let contracted = Hierarchy.Assignment.contract_parts h part in
        match Solvers.Exact.brute_force (Hierarchical t) contracted ~k with
        | None -> Alcotest.fail "every assignment is balanced"
        | Some { Solvers.Exact.cost; _ } ->
            Alcotest.(check (float 1e-9)) "exact = brute force" cost
              ex.Hierarchy.Assignment.cost;
            Alcotest.(check (float 1e-9)) "priced as its assignment"
              (HC.cost_with_assignment t h part
                 ex.Hierarchy.Assignment.leaf_of_part)
              ex.Hierarchy.Assignment.cost
      done)
    [
      topo22 4.0;
      T.two_level ~b1:2 ~b2:3 ~g1:3.0;
      T.two_level ~b1:3 ~b2:2 ~g1:2.0;
    ]

let test_count_assignments () =
  (* f(4) with b = (2,2): 4! / (2! * 2! * 2!) = 3. *)
  Alcotest.(check (float 1e-9)) "f(4) = 3" 3.0
    (Hierarchy.Assignment.count_assignments (topo22 2.0));
  (* f(8) with b = (2,2,2): 8! / (2! * (2!)^2 * (2!)^4) = 40320/128 = 315. *)
  Alcotest.(check (float 1e-9)) "f(8) = 315" 315.0
    (Hierarchy.Assignment.count_assignments (T.uniform_binary ~depth:3 ~g:2.0))

let test_contract_parts () =
  let h, part = star_hypergraph () in
  let c = Hierarchy.Assignment.contract_parts h part in
  Alcotest.(check int) "one node per part" 4 (H.num_nodes c);
  (* The five parallel 0-1 edges merge into one of weight 5. *)
  Alcotest.(check int) "merged edges" 2 (H.num_edges c);
  Alcotest.(check int) "total edge weight" 6 (H.total_edge_weight c);
  Alcotest.(check (array int)) "unit node weights" [| 1; 1; 1; 1 |]
    (H.csr_node_weights c)

(* Two-step method ------------------------------------------------------------- *)

let test_two_step_on_star () =
  let h, part = star_hypergraph () in
  let t = topo22 10.0 in
  let r = Hierarchy.Two_step.of_flat t h part in
  Alcotest.(check int) "flat cost" 6 r.Hierarchy.Two_step.flat_cost;
  Alcotest.(check (float 1e-9)) "assigned optimally" 6.0
    r.Hierarchy.Two_step.hier_cost;
  (* The hierarchical partition is the flat one relabeled. *)
  Alcotest.(check (float 1e-9)) "relabel consistent"
    r.Hierarchy.Two_step.hier_cost
    (HC.cost t h r.Hierarchy.Two_step.hierarchical)

let test_two_step_g1_approximation () =
  (* Lemma 7.3: two-step cost <= g1 * OPT_hier; check against brute
     force. *)
  let rng = Support.Rng.create 17 in
  for _ = 1 to 5 do
    let h =
      H.of_edges ~n:8
        (Array.init 6 (fun _ ->
             Support.Rng.sample_distinct rng ~n:8 ~k:(2 + Support.Rng.int rng 2)))
    in
    let t = topo22 3.0 in
    match Solvers.Exact.brute_force (Hierarchical t) h ~k:4 with
    | None -> Alcotest.fail "feasible"
    | Some { Solvers.Exact.cost = opt; _ } ->
        (* Use the exact flat partitioner for step (i). *)
        let flat =
          match Solvers.Exact.solve ~eps:0.0 h ~k:4 with
          | Some { Solvers.Exact.part; _ } -> part
          | None -> Alcotest.fail "flat feasible"
        in
        let r = Hierarchy.Two_step.of_flat t h flat in
        Alcotest.(check bool) "two-step >= opt" true
          (r.Hierarchy.Two_step.hier_cost >= opt -. 1e-9);
        Alcotest.(check bool) "two-step <= g1 * opt (Lemma 7.3)" true
          (r.Hierarchy.Two_step.hier_cost <= (3.0 *. opt) +. 1e-9)
  done

(* Past k = 8 on a depth-3 tree, two-step searches f(k) = 46,200
   assignments of (2,2,3) exactly, where the leaf-swap local search can
   stop above the optimum. *)
let test_two_step_exact_depth3 () =
  let t = T.create ~branching:[| 2; 2; 3 |] ~costs:[| 4.0; 2.0; 1.0 |] in
  let rng = Support.Rng.create 53 in
  let gaps =
    List.init 6 (fun _ ->
        let h =
          H.of_edges ~n:36
            (Array.init 48 (fun _ ->
                 Support.Rng.sample_distinct rng ~n:36
                   ~k:(2 + Support.Rng.int rng 3)))
        in
        let flat = P.create ~k:12 (Array.init 36 (fun v -> v mod 12)) in
        let r = Hierarchy.Two_step.of_flat t h flat in
        let ex = Hierarchy.Assignment.exact t h flat in
        let ls = Hierarchy.Assignment.local_search t h flat in
        Alcotest.(check (float 1e-9)) "two-step = exact"
          ex.Hierarchy.Assignment.cost r.Hierarchy.Two_step.hier_cost;
        Alcotest.(check bool) "local search >= exact" true
          (ls.Hierarchy.Assignment.cost >= ex.Hierarchy.Assignment.cost -. 1e-9);
        ls.Hierarchy.Assignment.cost -. ex.Hierarchy.Assignment.cost)
  in
  Alcotest.(check bool) "exact below local search somewhere" true
    (List.exists (fun gap -> gap > 1e-9) gaps)

(* Recursive hierarchical partitioning ------------------------------------------ *)

let test_recursive_hier_produces_valid_partition () =
  let rng = Support.Rng.create 19 in
  let h =
    H.of_edges ~n:32
      (Array.init 40 (fun _ ->
           Support.Rng.sample_distinct rng ~n:32 ~k:(2 + Support.Rng.int rng 3)))
  in
  let t = topo22 4.0 in
  let p = Solvers.Recursive.hierarchical ~eps:0.1 rng t h in
  Alcotest.(check int) "arity = leaves" 4 (P.k p);
  Alcotest.(check bool) "roughly balanced" true (P.is_balanced ~eps:0.35 h p);
  Alcotest.(check bool) "cost finite" true (HC.cost t h p >= 0.0)

let test_restrict () =
  let h = H.of_edges ~n:4 [| [| 0; 1; 2 |]; [| 2; 3 |] |] in
  let sub = H.restrict h [| 0; 1; 2 |] in
  Alcotest.(check int) "restricted nodes" 3 (H.num_nodes sub);
  (* Edge {2,3} drops to a singleton and disappears. *)
  Alcotest.(check int) "restricted edges" 1 (H.num_edges sub)

(* Brute-force hierarchical optimum --------------------------------------------- *)

let test_hier_brute_force_sanity () =
  (* Two heavy pairs: optimal hierarchical bisection-of-bisections puts
     each pair in sibling leaves. *)
  let h =
    H.of_edges ~n:4
      ~edge_weights:[| 10; 10; 1 |]
      [| [| 0; 1 |]; [| 2; 3 |]; [| 1; 2 |] |]
  in
  let t = topo22 7.0 in
  match Solvers.Exact.brute_force (Hierarchical t) h ~k:4 with
  | None -> Alcotest.fail "feasible"
  | Some { Solvers.Exact.cost; part } ->
      (* Each node alone in a leaf (capacity 1): pairs {0,1} and {2,3} as
         siblings cost 10 + 10 cheap + 1 crossing = 10+10+7. *)
      Alcotest.(check (float 1e-9)) "optimal cost" 27.0 cost;
      Alcotest.(check bool) "0,1 siblings" true
        (T.lca_level t (P.color part 0) (P.color part 1) = 2)

let test_hier_branch_and_bound_matches_brute_force () =
  let rng = Support.Rng.create 41 in
  for _ = 1 to 6 do
    let h =
      H.of_edges ~n:8
        (Array.init 6 (fun _ ->
             Support.Rng.sample_distinct rng ~n:8
               ~k:(2 + Support.Rng.int rng 2)))
    in
    let t = topo22 (2.0 +. float_of_int (Support.Rng.int rng 4)) in
    let bf = Solvers.Exact.brute_force (Hierarchical t) h ~k:4 in
    let bb = Solvers.Exact.hierarchical ~eps:0.0 t h in
    match (bf, bb) with
    | Some a, Some b ->
        Alcotest.(check (float 1e-6)) "B&B = brute force"
          a.Solvers.Exact.cost b.Solvers.Exact.cost
    | None, None -> ()
    | _ -> Alcotest.fail "feasibility disagreement"
  done

(* The one exact search against the brute force, for every objective: a
   flat metric with and without class caps, and Definition 7.1 on flat,
   two- and three-level trees, at eps 0, 0.5 and 1, on weighted instances
   of at most about 5e4 brute-force leaves (k^n). *)
let oracle_instance rng ~k =
  let rec largest n =
    if float_of_int k ** float_of_int (n + 1) > 5e4 then n else largest (n + 1)
  in
  let n = 2 + Support.Rng.int rng (largest 1 - 1) in
  let edges =
    Array.init
      (1 + Support.Rng.int rng (n + 2))
      (fun _ ->
        Support.Rng.sample_distinct rng ~n
          ~k:(2 + Support.Rng.int rng (min 3 (n - 1))))
  in
  let node_weights =
    if Support.Rng.bool rng then Array.make n 1
    else Array.init n (fun _ -> 1 + Support.Rng.int rng 2)
  in
  H.of_edges ~n ~node_weights
    ~edge_weights:(Array.map (fun _ -> 1 + Support.Rng.int rng 4) edges)
    edges

let prop_exact_matches_brute_force =
  let close a b = Float.abs (a -. b) <= 1e-9 in
  let flat_agrees rng ~eps metric ~caps =
    let k = 2 + Support.Rng.int rng 3 in
    let h = oracle_instance rng ~k in
    let n = H.num_nodes h in
    let constrained =
      if caps then
        Some
          {
            Solvers.Constrained.classes =
              Array.init n (fun _ -> Support.Rng.int rng 3 - 1);
            caps = Array.init 2 (fun _ -> 1 + Support.Rng.int rng ((n / k) + 1));
          }
      else None
    in
    let respects part =
      match constrained with
      | Some inst -> Solvers.Constrained.respects inst ~k part
      | None -> true
    in
    match
      ( Solvers.Exact.solve ~metric ~eps ?constrained h ~k,
        Solvers.Exact.brute_force ~eps ~feasible:respects (Metric metric) h ~k )
    with
    | None, None -> true
    | Some a, Some b ->
        a.Solvers.Exact.cost = b.Solvers.Exact.cost
        && P.cost ~metric h a.part = a.cost
        && P.is_balanced ~eps h a.part && respects a.part
    | _ -> false
  in
  let tree_agrees rng ~eps topo =
    let h = oracle_instance rng ~k:(T.num_leaves topo) in
    match
      ( Solvers.Exact.hierarchical ~eps topo h,
        Solvers.Exact.brute_force ~eps (Hierarchical topo) h
          ~k:(T.num_leaves topo) )
    with
    | None, None -> true
    | Some a, Some b ->
        close a.Solvers.Exact.cost b.Solvers.Exact.cost
        && close (HC.cost topo h a.part) a.cost
        && close (HC.cost topo h b.part) b.cost
        && P.is_balanced ~eps h a.part
    | _ -> false
  in
  let trees =
    [
      T.flat 3;
      T.two_level ~b1:2 ~b2:2 ~g1:2.5;
      T.two_level ~b1:2 ~b2:3 ~g1:4.0;
      T.two_level ~b1:3 ~b2:2 ~g1:2.0;
      T.uniform_binary ~depth:3 ~g:2.0;
    ]
  in
  QCheck.Test.make ~name:"exact search = brute force, every objective"
    ~count:20
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Support.Rng.create seed in
      List.for_all
        (fun eps ->
          List.for_all
            (fun metric ->
              flat_agrees rng ~eps metric ~caps:false
              && flat_agrees rng ~eps metric ~caps:true)
            [ P.Connectivity; P.Cut_net ]
          && List.for_all (tree_agrees rng ~eps) trees)
        [ 0.0; 0.5; 1.0 ])

let test_hier_refine_monotone_and_balanced () =
  let rng = Support.Rng.create 47 in
  for _ = 1 to 8 do
    let h =
      H.of_edges ~n:24
        (Array.init 20 (fun _ ->
             Support.Rng.sample_distinct rng ~n:24
               ~k:(2 + Support.Rng.int rng 3)))
    in
    let t = topo22 6.0 in
    let part = Solvers.Initial.random_balanced ~eps:0.1 rng h ~k:4 in
    let before = HC.cost t h part in
    let after =
      Hierarchy.Hier_refine.refine
        ~config:{ Hierarchy.Hier_refine.default_config with eps = 0.1 }
        t h part
    in
    Alcotest.(check bool) "hier refine never worse" true
      (after <= before +. 1e-9);
    Alcotest.(check (float 1e-6)) "returned cost correct" (HC.cost t h part)
      after;
    Alcotest.(check bool) "still balanced" true (P.is_balanced ~eps:0.1 h part)
  done

let test_hier_refine_fixes_bad_placement () =
  (* Heavy sibling traffic placed across the top: with some balance slack
     (single moves need room, exactly the eps = 0 plateau that motivates
     KL swaps in the flat setting) the refinement must reach at least the
     matching-optimal placement cost. *)
  let h, part = star_hypergraph () in
  let t = topo22 10.0 in
  let opt = Hierarchy.Assignment.exact t h part in
  (* Relabel the flat parts by a deliberately bad assignment. *)
  let bad =
    P.create ~k:4
      (Array.map (fun c -> [| 0; 2; 1; 3 |].(c)) (P.assignment part))
  in
  let before = HC.cost t h bad in
  let after =
    Hierarchy.Hier_refine.refine
      ~config:{ Hierarchy.Hier_refine.default_config with eps = 1.0 }
      t h bad
  in
  Alcotest.(check bool) "bad placement was worse" true
    (before > opt.Hierarchy.Assignment.cost +. 1e-9);
  Alcotest.(check bool) "refinement reaches the assignment optimum" true
    (after <= opt.Hierarchy.Assignment.cost +. 1e-9);
  Alcotest.(check bool) "still balanced at the slack used" true
    (P.is_balanced ~eps:1.0 h bad)

(* Steiner / arbitrary topologies ------------------------------------------------ *)

let test_steiner_matches_tree_topology () =
  (* On a tree metric, the Steiner tree cost of a leaf set equals the
     Definition 7.1 edge cost. *)
  let t = topo22 4.0 in
  let m = Hierarchy.Steiner.of_topology t in
  List.iter
    (fun leaves ->
      Alcotest.(check (float 1e-9))
        (Fmt.str "steiner = hier for %d leaves" (List.length leaves))
        (HC.edge_cost t leaves)
        (Hierarchy.Steiner.exact m (Array.of_list leaves)))
    [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 1; 2 ]; [ 0; 1; 2; 3 ]; [ 1; 3 ] ]

let test_steiner_mst_upper_bound () =
  let rng = Support.Rng.create 23 in
  for _ = 1 to 10 do
    (* Random metric via random points on a line. *)
    let k = 6 in
    let pos = Array.init k (fun _ -> Support.Rng.float rng 10.0) in
    let m =
      Array.init k (fun a ->
          Array.init k (fun b -> abs_float (pos.(a) -. pos.(b))))
    in
    let terminals = Support.Rng.sample_distinct rng ~n:k ~k:4 in
    let ex = Hierarchy.Steiner.exact m terminals in
    let mst = Hierarchy.Steiner.mst_approx m terminals in
    Alcotest.(check bool) "mst >= exact" true (mst >= ex -. 1e-9);
    Alcotest.(check bool) "mst <= 2 * exact" true (mst <= (2.0 *. ex) +. 1e-9)
  done

let test_steiner_cost_of_partition () =
  let h = H.of_edges ~n:4 [| [| 0; 1 |]; [| 2; 3 |] |] in
  let t = topo22 4.0 in
  let m = Hierarchy.Steiner.of_topology t in
  let p = P.create ~k:4 [| 0; 2; 1; 3 |] in
  Alcotest.(check (float 1e-9)) "steiner total = hier total"
    (HC.cost t h p)
    (Hierarchy.Steiner.cost m h p)

let suite =
  [
    Alcotest.test_case "topology basics" `Quick test_topology_basics;
    Alcotest.test_case "topology validation" `Quick test_topology_validation;
    Alcotest.test_case "uniform binary" `Quick test_uniform_binary;
    Alcotest.test_case "edge cost (paper example)" `Quick
      test_edge_cost_paper_example;
    Alcotest.test_case "flat topology = connectivity" `Quick
      test_flat_topology_is_connectivity;
    Alcotest.test_case "cost within Lemma 7.3 bounds" `Quick
      test_hier_cost_within_bounds;
    Alcotest.test_case "assignment exact" `Quick test_assignment_exact;
    Alcotest.test_case "assignment methods agree" `Quick
      test_assignment_methods_agree;
    Alcotest.test_case "assignment exact = brute force" `Quick
      test_assignment_exact_brute_force;
    Alcotest.test_case "count assignments f(k)" `Quick test_count_assignments;
    Alcotest.test_case "contract parts" `Quick test_contract_parts;
    Alcotest.test_case "two-step on star" `Quick test_two_step_on_star;
    Alcotest.test_case "two-step exact on a depth-3 tree" `Quick
      test_two_step_exact_depth3;
    Alcotest.test_case "two-step g1-approximation" `Slow
      test_two_step_g1_approximation;
    Alcotest.test_case "recursive hier partition" `Quick
      test_recursive_hier_produces_valid_partition;
    Alcotest.test_case "restrict" `Quick test_restrict;
    Alcotest.test_case "hier brute force" `Quick test_hier_brute_force_sanity;
    Alcotest.test_case "hier refine monotone" `Quick
      test_hier_refine_monotone_and_balanced;
    Alcotest.test_case "hier refine fixes bad placement" `Quick
      test_hier_refine_fixes_bad_placement;
    Alcotest.test_case "hier B&B = brute force" `Slow
      test_hier_branch_and_bound_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_exact_matches_brute_force;
    Alcotest.test_case "steiner = tree cost" `Quick
      test_steiner_matches_tree_topology;
    Alcotest.test_case "steiner MST bounds" `Quick test_steiner_mst_upper_bound;
    Alcotest.test_case "steiner partition cost" `Quick
      test_steiner_cost_of_partition;
  ]
