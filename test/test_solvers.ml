(* Tests for the partitioning solvers: initial partitioners, FM refinement,
   coarsening, multilevel, recursive partitioning, exact branch-and-bound and
   the XP algorithm of Lemma 4.3. *)

module H = Hypergraph
module P = Partition
module S = Solvers

let rng () = Support.Rng.create 12345

let random_hypergraph rng ~n ~m ~max_size =
  let edges =
    Array.init m (fun _ ->
        let size = 2 + Support.Rng.int rng (max 1 (max_size - 1)) in
        Support.Rng.sample_distinct rng ~n ~k:(min size n))
  in
  H.of_edges ~n edges

(* Initial partitioners ------------------------------------------------------ *)

let test_random_balanced_feasible () =
  let r = rng () in
  for _ = 1 to 20 do
    let h = random_hypergraph r ~n:20 ~m:15 ~max_size:4 in
    let p = S.Initial.random_balanced ~eps:0.0 r h ~k:4 in
    Alcotest.(check bool) "eps=0 feasible (n divisible by k)" true
      (P.is_balanced ~eps:0.0 h p)
  done

let test_bfs_growth_feasible () =
  let r = rng () in
  for _ = 1 to 20 do
    let h = random_hypergraph r ~n:24 ~m:20 ~max_size:4 in
    let p = S.Initial.bfs_growth ~eps:0.1 r h ~k:3 in
    Alcotest.(check bool) "bfs growth feasible" true
      (P.is_balanced ~eps:0.1 h p)
  done

let test_round_robin () =
  let h = random_hypergraph (rng ()) ~n:10 ~m:5 ~max_size:3 in
  let p = S.Initial.round_robin h ~k:2 in
  Alcotest.(check (array int)) "sizes" [| 5; 5 |] (P.part_sizes h p)

(* Pin counts ----------------------------------------------------------------- *)

let test_pin_counts_consistency () =
  let r = rng () in
  let h = random_hypergraph r ~n:15 ~m:12 ~max_size:5 in
  let p = P.random r ~k:3 ~n:15 in
  let pc = S.Pin_counts.create h p in
  for e = 0 to H.num_edges h - 1 do
    Alcotest.(check int) "lambda agrees" (P.lambda h p e)
      (S.Pin_counts.lambda pc e)
  done;
  Alcotest.(check int) "cost agrees" (P.connectivity_cost h p)
    (S.Pin_counts.cost pc);
  (* Apply random moves and compare move_delta against recomputation. *)
  for _ = 1 to 100 do
    let v = Support.Rng.int r 15 in
    let src = P.color p v in
    let dst = Support.Rng.int r 3 in
    if src <> dst then begin
      let before = P.connectivity_cost h p in
      let claimed = S.Pin_counts.move_delta pc v ~src ~dst in
      let claimed_cut =
        S.Pin_counts.move_delta ~metric:P.Cut_net pc v ~src ~dst
      in
      let before_cut = P.cutnet_cost h p in
      S.Pin_counts.move pc v ~src ~dst;
      (P.assignment p).(v) <- dst;
      Alcotest.(check int) "connectivity delta"
        (P.connectivity_cost h p - before)
        claimed;
      Alcotest.(check int) "cutnet delta"
        (P.cutnet_cost h p - before_cut)
        claimed_cut;
      Alcotest.(check int) "incremental cost" (P.connectivity_cost h p)
        (S.Pin_counts.cost pc)
    end
  done;
  (* [~reuse] refills a value built for the same hypergraph and k in
     place, and allocates afresh for another hypergraph or another k. *)
  let q = P.random r ~k:3 ~n:15 in
  let fresh = S.Pin_counts.create h q in
  let reused = S.Pin_counts.create ~reuse:pc h q in
  Alcotest.(check bool) "same hypergraph and k: refilled in place" true
    (reused == pc);
  for e = 0 to H.num_edges h - 1 do
    for c = 0 to 2 do
      Alcotest.(check int) "reused count" (S.Pin_counts.count fresh e c)
        (S.Pin_counts.count reused e c)
    done;
    Alcotest.(check int) "reused lambda" (S.Pin_counts.lambda fresh e)
      (S.Pin_counts.lambda reused e)
  done;
  let h' = H.of_edges ~n:15 (H.edges h) in
  Alcotest.(check bool) "equal but other hypergraph: fresh" false
    (S.Pin_counts.create ~reuse:reused h' q == reused);
  Alcotest.(check bool) "other k: fresh" false
    (S.Pin_counts.create ~reuse:reused h (P.random r ~k:4 ~n:15) == reused)

(* Refinement ------------------------------------------------------------------ *)

let test_refine_never_worse_and_feasible () =
  let r = rng () in
  for _ = 1 to 10 do
    let h = random_hypergraph r ~n:30 ~m:40 ~max_size:4 in
    let p = S.Initial.random_balanced ~eps:0.1 r h ~k:2 in
    let before = P.connectivity_cost h p in
    let after =
      S.Refine.refine
        ~config:{ S.Refine.default_config with eps = 0.1 }
        h p
    in
    Alcotest.(check bool) "refine does not worsen" true (after <= before);
    Alcotest.(check int) "returned cost correct" (P.connectivity_cost h p)
      after;
    Alcotest.(check bool) "still balanced" true (P.is_balanced ~eps:0.1 h p)
  done

let test_refine_finds_obvious_split () =
  (* Two blocks joined by a single edge: FM from a random start should find
     the 0 or 1-cost split. *)
  let b = H.Builder.create () in
  let b1 = H.Gadgets.block b ~size:6 in
  let b2 = H.Gadgets.block b ~size:6 in
  let _bridge = H.Builder.add_edge b [| b1.(0); b2.(0) |] in
  let h = H.Builder.build b in
  let r = rng () in
  let best = ref max_int in
  for _ = 1 to 10 do
    let p = S.Initial.random_balanced ~eps:0.0 r h ~k:2 in
    let c =
      S.Refine.refine ~config:{ S.Refine.default_config with eps = 0.0 } h p
    in
    if c < !best then best := c
  done;
  Alcotest.(check int) "finds the bridge cut" 1 !best

let test_refine_rebalances () =
  let h = random_hypergraph (rng ()) ~n:12 ~m:10 ~max_size:3 in
  (* Start from everything in part 0: infeasible at eps=0. *)
  let p = P.trivial ~k:2 ~n:12 in
  ignore (S.Refine.refine ~config:S.Refine.default_config h p);
  Alcotest.(check bool) "rebalanced to feasibility" true
    (P.is_balanced ~eps:0.0 h p)

(* Four nodes, each as heavy as a whole part (k = 4, ε = 0), so the only
   balanced partitions put one node in each part and the start is
   optimal; yet moving node 0 next to node 1 gains 6.  A move empties its
   source and overfills its destination by one node, and once two nodes
   have moved into one part that part's moved-in weight exceeds the
   capacity: no later prefix can be balanced, so the pass ends there and
   rolls back to its start. *)
let test_refine_balance_cutoff () =
  let h =
    H.of_edges ~node_weights:(Array.make 4 10) ~edge_weights:[| 6; 5; 4 |]
      ~n:4
      [| [| 0; 1 |]; [| 1; 2 |]; [| 1; 3 |] |]
  in
  let start = [| 0; 1; 2; 3 |] in
  let p = P.create ~k:4 (Array.copy start) in
  let stats = S.Fm_stats.create () in
  let cost = S.Refine.refine ~stats h p in
  Alcotest.(check bool) "a pass hit the balance cutoff" true
    (stats.S.Fm_stats.balance_cutoffs > 0);
  Alcotest.(check int) "no move accepted" 0 stats.S.Fm_stats.accepted;
  Alcotest.(check (array int)) "balanced start returned" start
    (P.assignment p);
  Alcotest.(check int) "start cost" 15 cost

(* Coarsening ------------------------------------------------------------------ *)

let test_coarsen_preserves_weight () =
  let r = rng () in
  let h = random_hypergraph r ~n:40 ~m:60 ~max_size:4 in
  match S.Coarsen.one_level r h ~max_cluster_weight:4 with
  | None -> Alcotest.fail "expected coarsening progress"
  | Some level ->
      Alcotest.(check int) "total weight preserved"
        (H.total_node_weight h)
        (H.total_node_weight level.S.Coarsen.coarse);
      Alcotest.(check bool) "fewer nodes" true
        (H.num_nodes level.S.Coarsen.coarse < H.num_nodes h);
      (* Cluster weights bounded. *)
      for v = 0 to H.num_nodes level.S.Coarsen.coarse - 1 do
        Alcotest.(check bool) "cluster weight bound" true
          (H.node_weight level.S.Coarsen.coarse v <= 4)
      done;
      (* Labels in range. *)
      Array.iter
        (fun l ->
          Alcotest.(check bool) "label in range" true
            (l >= 0 && l < H.num_nodes level.S.Coarsen.coarse))
        level.S.Coarsen.label

let test_projection_preserves_cost () =
  (* Cost of a coarse partition equals the cost of its projection: uncut
     coarse edges stay uncut, and contraction merged identical edges with
     summed weights. *)
  let r = rng () in
  let h = random_hypergraph r ~n:40 ~m:60 ~max_size:4 in
  match S.Coarsen.one_level r h ~max_cluster_weight:4 with
  | None -> Alcotest.fail "expected coarsening progress"
  | Some level ->
      let coarse = level.S.Coarsen.coarse in
      for _ = 1 to 10 do
        let cp = P.random r ~k:3 ~n:(H.num_nodes coarse) in
        let fp = S.Coarsen.project level cp in
        Alcotest.(check int) "projected connectivity cost"
          (P.connectivity_cost coarse cp)
          (P.connectivity_cost h fp)
      done

(* Multilevel ------------------------------------------------------------------ *)

let test_multilevel_feasible_and_reasonable () =
  let r = rng () in
  let h = random_hypergraph r ~n:200 ~m:300 ~max_size:5 in
  let p = S.Multilevel.partition r h ~k:4 in
  Alcotest.(check bool) "balanced" true (P.is_balanced ~eps:0.03 h p);
  let cost = P.connectivity_cost h p in
  (* Sanity: better than the average random partition. *)
  let rand_cost =
    let acc = ref 0 in
    for _ = 1 to 5 do
      acc := !acc + P.connectivity_cost h (P.random r ~k:4 ~n:200)
    done;
    !acc / 5
  in
  Alcotest.(check bool) "beats random" true (cost < rand_cost)

let test_multilevel_near_optimal_on_blocks () =
  (* Four blocks in a ring of single edges: optimum 4-way cost is 4 (the
     ring edges); multilevel should find a cost <= 8 easily and balance. *)
  let b = H.Builder.create () in
  let blocks = Array.init 4 (fun _ -> H.Gadgets.block b ~size:8) in
  for i = 0 to 3 do
    ignore (H.Builder.add_edge b [| blocks.(i).(0); blocks.((i + 1) mod 4).(0) |])
  done;
  let h = H.Builder.build b in
  let p = S.Multilevel.partition (rng ()) h ~k:4 in
  Alcotest.(check bool) "balanced" true (P.is_balanced ~eps:0.03 h p);
  Alcotest.(check bool) "does not split blocks" true
    (P.connectivity_cost h p <= 8)

(* Recursive partitioning -------------------------------------------------------- *)

let test_recursive_bisection_partitions () =
  let r = rng () in
  let h = random_hypergraph r ~n:64 ~m:100 ~max_size:4 in
  let p = S.Recursive.bisection ~eps:0.1 r h ~k:4 in
  Alcotest.(check int) "k" 4 (P.k p);
  Alcotest.(check bool) "roughly balanced" true (P.is_balanced ~eps:0.6 h p)

let test_recursive_bisection_odd_k () =
  let r = rng () in
  let h = random_hypergraph r ~n:60 ~m:80 ~max_size:3 in
  let p = S.Recursive.bisection ~eps:0.1 r h ~k:3 in
  Alcotest.(check int) "k" 3 (P.k p);
  let sizes = P.part_sizes h p in
  Array.iter
    (fun s -> Alcotest.(check bool) "no empty part" true (s > 0))
    sizes

(* One driver: the topology case on a uniform binary tree of depth d is
   recursive bisection at k = 2^d, split for split. *)
let test_recursive_one_algorithm () =
  let r = rng () in
  for trial = 1 to 6 do
    let n = 47 + Support.Rng.int r 204 in
    let h = random_hypergraph r ~n ~m:(3 * n / 2) ~max_size:5 in
    for depth = 1 to 3 do
      let eps = [| 0.0; 0.05; 0.1 |].(trial mod 3) in
      let topo = P.Topology.uniform_binary ~depth ~g:2.0 in
      let hier = S.Recursive.hierarchical ~eps (Support.Rng.create trial) topo h in
      let flat =
        S.Recursive.bisection ~eps (Support.Rng.create trial) h
          ~k:(1 lsl depth)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "n = %d, d = %d" n depth)
        (P.assignment flat) (P.assignment hier)
    done
  done

let example name = H.Hmetis.load (Repo_file.path ("examples/instances/" ^ name))

let check_recursive_balanced ~eps cases =
  List.iter
    (fun (name, k, seed) ->
      let h = example name in
      let p = S.Recursive.bisection ~eps (Support.Rng.create seed) h ~k in
      Alcotest.(check bool)
        (Printf.sprintf "%s, k = %d, seed %d, imbalance %.3f" name k seed
           (P.imbalance h p))
        true
        (P.is_balanced ~eps h p))
    cases

(* The splits share eps: (1+eps')^L = 1+eps.  With the full eps at every
   split the imbalance compounds: these cases read 0.125 and 0.25
   (small_random, k = 3 and 5) and 0.125, 0.167 and 0.25 (spmv_banded,
   k = 3, 4 and 6) at eps = 0.1. *)
let test_recursive_eps_shared () =
  check_recursive_balanced ~eps:0.1
    [
      ("small_random.hgr", 3, 1);
      ("small_random.hgr", 5, 1);
      ("spmv_banded.hgr", 3, 1);
      ("spmv_banded.hgr", 4, 1);
      ("spmv_banded.hgr", 6, 1);
    ]

(* A side carrying s parts is capped at s times the final capacity too.
   Capped only at its share of (1+eps') W_g, the first split at eps = 0.3,
   k = 8 may put 13 of 24 nodes on a side of 4 parts of capacity 3, and
   each of these cases ended with a part of weight 4. *)
let test_recursive_final_capacity () =
  check_recursive_balanced ~eps:0.3
    [
      ("small_random.hgr", 8, 2);
      ("small_random.hgr", 8, 3);
      ("small_random.hgr", 8, 4);
      ("small_random.hgr", 8, 5);
      ("spmv_banded.hgr", 8, 1);
      ("spmv_banded.hgr", 8, 3);
      ("spmv_banded.hgr", 8, 5);
    ]

(* Under cut-net a side recurses on its induced sub-hypergraph, so an edge
   a split has cut no longer steers the lower splits.  Recursing on the
   connectivity fragments instead reads 30, 10 and 6 here. *)
let test_recursive_cutnet () =
  List.iter
    (fun (name, expected) ->
      let h = example name in
      let cutnet metric =
        P.cutnet_cost h
          (S.Recursive.bisection ~metric (Support.Rng.create 1) h ~k:4)
      in
      Alcotest.(check int) (name ^ " under cut-net") expected
        (cutnet P.Cut_net);
      Alcotest.(check bool) (name ^ " below the connectivity recursion") true
        (cutnet P.Cut_net < cutnet P.Connectivity))
    [ ("small_random.hgr", 25); ("spmv_banded.hgr", 8); ("two_regular.hgr", 3) ]

(* Exact ------------------------------------------------------------------------- *)

let test_exact_matches_brute_force () =
  let r = rng () in
  for _ = 1 to 15 do
    let n = 6 + Support.Rng.int r 4 in
    let h = random_hypergraph r ~n ~m:(n + 2) ~max_size:4 in
    List.iter
      (fun (k, eps) ->
        let bf = S.Exact.brute_force ~eps (Metric P.Connectivity) h ~k in
        let bb = S.Exact.solve ~eps h ~k in
        match (bf, bb) with
        | None, None -> ()
        | Some a, Some b ->
            Alcotest.(check int) "optimum agrees" a.S.Exact.cost b.S.Exact.cost
        | _ -> Alcotest.fail "feasibility disagreement")
      [ (2, 0.0); (2, 0.4); (3, 0.0); (3, 0.5) ]
  done

let test_exact_cutnet_matches_brute_force () =
  let r = rng () in
  for _ = 1 to 10 do
    let n = 6 + Support.Rng.int r 3 in
    let h = random_hypergraph r ~n ~m:n ~max_size:4 in
    let bf = S.Exact.brute_force (Metric P.Cut_net) h ~k:3 in
    let bb = S.Exact.solve ~metric:P.Cut_net ~eps:0.0 h ~k:3 in
    match (bf, bb) with
    | None, None -> ()
    | Some a, Some b ->
        Alcotest.(check int) "cutnet optimum" a.S.Exact.cost b.S.Exact.cost
    | _ -> Alcotest.fail "feasibility disagreement"
  done

let test_exact_block_integrity () =
  (* Lemma A.5: splitting a block of size b costs >= b - 1.  With two
     blocks, the bisection optimum is exactly the bridge edge. *)
  let b = H.Builder.create () in
  let b1 = H.Gadgets.block b ~size:5 in
  let b2 = H.Gadgets.block b ~size:5 in
  ignore (H.Builder.add_edge b [| b1.(0); b2.(0) |]);
  let h = H.Builder.build b in
  match S.Exact.solve ~eps:0.0 h ~k:2 with
  | None -> Alcotest.fail "bisection should exist"
  | Some { cost; part } ->
      Alcotest.(check int) "optimum cuts only the bridge" 1 cost;
      Alcotest.(check bool) "blocks monochromatic" true
        (P.color part b1.(0) = P.color part b1.(4)
        && P.color part b2.(0) = P.color part b2.(4))

let test_exact_infeasible () =
  (* k=2, eps=0, odd total weight with indivisible nodes: strict capacity
     floor(5/2)=2 per part cannot host weight 5. *)
  let h = H.of_edges ~n:5 [| [| 0; 1 |] |] in
  Alcotest.(check (option int)) "strict 5 nodes k=2 eps=0 infeasible" None
    (S.Exact.optimum ~eps:0.0 h ~k:2);
  Alcotest.(check bool) "relaxed feasible" true
    (S.Exact.solve ~variant:P.Relaxed ~eps:0.0 h ~k:2 <> None)

let test_exact_decision () =
  let b = H.Builder.create () in
  let b1 = H.Gadgets.block b ~size:4 in
  let b2 = H.Gadgets.block b ~size:4 in
  ignore (H.Builder.add_edge b [| b1.(0); b2.(0) |]);
  let h = H.Builder.build b in
  Alcotest.(check bool) "cost 1 achievable" true
    (S.Exact.decision h ~k:2 ~cost_limit:1);
  Alcotest.(check bool) "cost 0 not achievable" false
    (S.Exact.decision h ~k:2 ~cost_limit:0)

let test_exact_with_feasibility_callback () =
  (* Multi-constraint via callback: nodes {0,1} must be split, cutting edge
     {0,1}; two isolated nodes give the slack to keep {2,3} uncut. *)
  let h = H.of_edges ~n:6 [| [| 0; 1 |]; [| 2; 3 |] |] in
  let mc = P.Multi_constraint.create [| [| 0; 1 |] |] in
  let feasible p = P.Multi_constraint.feasible ~eps:0.0 mc p in
  (match S.Exact.solve ~eps:0.0 ~symmetry:true ~feasible h ~k:2 with
  | None -> Alcotest.fail "feasible solution exists"
  | Some { cost; part } ->
      Alcotest.(check int) "must cut edge {0,1} only" 1 cost;
      Alcotest.(check bool) "constraint satisfied" true (feasible part));
  (* Without slack nodes the constraint also forces {2,3} apart. *)
  let h4 = H.of_edges ~n:4 [| [| 0; 1 |]; [| 2; 3 |] |] in
  match S.Exact.solve ~eps:0.0 ~feasible h4 ~k:2 with
  | None -> Alcotest.fail "feasible solution exists"
  | Some { cost; _ } -> Alcotest.(check int) "both edges cut" 2 cost

(* XP algorithm ------------------------------------------------------------------ *)

let test_xp_matches_exact () =
  let r = rng () in
  for _ = 1 to 8 do
    let n = 6 in
    let h = random_hypergraph r ~n ~m:5 ~max_size:3 in
    let exact = S.Exact.optimum ~eps:0.0 h ~k:2 in
    match exact with
    | None -> ()
    | Some opt when opt <= 3 -> (
        match S.Xp.optimum ~eps:0.0 h ~k:2 ~limit:3 with
        | None -> Alcotest.fail "XP missed a small optimum"
        | Some (l, part) ->
            Alcotest.(check int) "XP optimum agrees" opt l;
            Alcotest.(check int) "witness cost" opt (P.connectivity_cost h part);
            Alcotest.(check bool) "witness balanced" true
              (P.is_balanced ~eps:0.0 h part))
    | Some _ -> (
        (* Optimum above the limit: XP must say no. *)
        match S.Xp.optimum ~eps:0.0 h ~k:2 ~limit:3 with
        | None -> ()
        | Some (l, _) -> Alcotest.failf "XP found %d below exact optimum" l)
  done

let test_xp_zero_cost () =
  (* Two disjoint equal components: cost 0 bisection. *)
  let h = H.of_edges ~n:4 [| [| 0; 1 |]; [| 2; 3 |] |] in
  match S.Xp.decision ~eps:0.0 h ~k:2 ~cost_limit:0 with
  | None -> Alcotest.fail "0-cost partition exists"
  | Some part ->
      Alcotest.(check int) "cost 0" 0 (P.connectivity_cost h part);
      Alcotest.(check bool) "balanced" true (P.is_balanced ~eps:0.0 h part)

let test_xp_k3 () =
  let h = H.of_edges ~n:6 [| [| 0; 1 |]; [| 2; 3 |]; [| 4; 5 |] |] in
  match S.Xp.decision ~eps:0.0 h ~k:3 ~cost_limit:0 with
  | None -> Alcotest.fail "0-cost 3-section exists"
  | Some part ->
      Alcotest.(check int) "cost 0" 0 (P.connectivity_cost h part)

let suite =
  [
    Alcotest.test_case "random_balanced feasible" `Quick
      test_random_balanced_feasible;
    Alcotest.test_case "bfs_growth feasible" `Quick test_bfs_growth_feasible;
    Alcotest.test_case "round robin" `Quick test_round_robin;
    Alcotest.test_case "pin counts consistency" `Quick
      test_pin_counts_consistency;
    Alcotest.test_case "refine monotone + feasible" `Quick
      test_refine_never_worse_and_feasible;
    Alcotest.test_case "refine finds bridge" `Quick
      test_refine_finds_obvious_split;
    Alcotest.test_case "refine rebalances" `Quick test_refine_rebalances;
    Alcotest.test_case "refine balance cutoff" `Quick
      test_refine_balance_cutoff;
    Alcotest.test_case "coarsen preserves weight" `Quick
      test_coarsen_preserves_weight;
    Alcotest.test_case "projection preserves cost" `Quick
      test_projection_preserves_cost;
    Alcotest.test_case "multilevel feasible" `Quick
      test_multilevel_feasible_and_reasonable;
    Alcotest.test_case "multilevel on blocks" `Quick
      test_multilevel_near_optimal_on_blocks;
    Alcotest.test_case "recursive bisection" `Quick
      test_recursive_bisection_partitions;
    Alcotest.test_case "recursive bisection odd k" `Quick
      test_recursive_bisection_odd_k;
    Alcotest.test_case "recursive: one algorithm" `Quick
      test_recursive_one_algorithm;
    Alcotest.test_case "recursive: eps shared by the splits" `Quick
      test_recursive_eps_shared;
    Alcotest.test_case "recursive: cut-net recursion" `Quick
      test_recursive_cutnet;
    Alcotest.test_case "recursive: sides within the final capacity" `Quick
      test_recursive_final_capacity;
    Alcotest.test_case "exact = brute force" `Slow test_exact_matches_brute_force;
    Alcotest.test_case "exact cutnet = brute force" `Slow
      test_exact_cutnet_matches_brute_force;
    Alcotest.test_case "exact block integrity" `Quick test_exact_block_integrity;
    Alcotest.test_case "exact infeasible" `Quick test_exact_infeasible;
    Alcotest.test_case "exact decision" `Quick test_exact_decision;
    Alcotest.test_case "exact with callback" `Quick
      test_exact_with_feasibility_callback;
    Alcotest.test_case "XP = exact" `Slow test_xp_matches_exact;
    Alcotest.test_case "XP zero cost" `Quick test_xp_zero_cost;
    Alcotest.test_case "XP k=3" `Quick test_xp_k3;
  ]
