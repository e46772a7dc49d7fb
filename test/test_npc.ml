(* Tests for the source-problem solvers (SpES, MpU, OV, 3-partition,
   coloring, clique, 3DM). *)

module G = Npc.Graph

let test_graph_basics () =
  let g = G.of_edges ~n:4 [ (0, 1); (2, 1); (2, 3) ] in
  Alcotest.(check int) "n" 4 (G.num_nodes g);
  Alcotest.(check int) "m" 3 (G.num_edges g);
  Alcotest.(check (array (pair int int))) "normalized sorted edges"
    [| (0, 1); (1, 2); (2, 3) |] (G.edges g);
  Alcotest.(check (array int)) "neighbors" [| 0; 2 |] (G.neighbors g 1);
  Alcotest.(check bool) "has edge" true (G.has_edge g 1 0);
  Alcotest.(check int) "degree" 2 (G.degree g 2);
  Alcotest.(check int) "induced count" 2
    (G.induced_edge_count g [| 0; 1; 2 |]);
  Alcotest.(check (list int)) "incident edges" [ 1; 2 ] (G.incident_edges g 2)

let test_graph_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop")
    (fun () -> ignore (G.of_edges ~n:2 [ (1, 1) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.of_edges: duplicate edge") (fun () ->
      ignore (G.of_edges ~n:2 [ (0, 1); (1, 0) ]))

(* SpES --------------------------------------------------------------------- *)

let test_spes_triangle () =
  (* Triangle + pendant: 3 induced edges need exactly the 3 triangle
     nodes. *)
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  (match Npc.Spes.exact g ~p:3 with
  | None -> Alcotest.fail "solution exists"
  | Some sol ->
      Alcotest.(check int) "3 nodes suffice" 3 (Array.length sol.Npc.Spes.nodes);
      Alcotest.(check bool) "is solution" true (Npc.Spes.is_solution g ~p:3 sol));
  Alcotest.(check (option int)) "p=1 needs 2 nodes" (Some 2)
    (Npc.Spes.optimum g ~p:1);
  Alcotest.(check (option int)) "p=0 trivial" (Some 0) (Npc.Spes.optimum g ~p:0);
  Alcotest.(check (option int)) "p too large" None (Npc.Spes.optimum g ~p:5)

let test_spes_clique_connection () =
  (* On a complete graph, covering C(s,2) edges takes exactly s nodes. *)
  let g = G.complete 6 in
  Alcotest.(check (option int)) "C(4,2)=6 edges need 4 nodes" (Some 4)
    (Npc.Spes.optimum g ~p:6);
  Alcotest.(check (option int)) "C(3,2)=3 edges need 3 nodes" (Some 3)
    (Npc.Spes.optimum g ~p:3)

let test_spes_greedy_feasible () =
  let rng = Support.Rng.create 3 in
  for _ = 1 to 20 do
    let g = G.random rng ~n:10 ~p:0.4 in
    let p = min 4 (G.num_edges g) in
    if p > 0 then
      match (Npc.Spes.greedy g ~p, Npc.Spes.exact g ~p) with
      | Some gr, Some ex ->
          Alcotest.(check bool) "greedy valid" true
            (Npc.Spes.is_solution g ~p gr);
          Alcotest.(check bool) "greedy >= optimum size" true
            (Array.length gr.Npc.Spes.nodes >= Array.length ex.Npc.Spes.nodes)
      | None, Some _ -> Alcotest.fail "greedy failed where exact succeeded"
      | _, None -> ()
  done

(* MpU ---------------------------------------------------------------------- *)

let test_mpu_matches_spes_on_graphs () =
  (* MpU on the 2-uniform hypergraph of a graph = SpES optimum. *)
  let rng = Support.Rng.create 5 in
  for _ = 1 to 10 do
    let g = G.random rng ~n:8 ~p:0.4 in
    if G.num_edges g >= 3 then begin
      let hg =
        Hypergraph.of_edges ~n:8
          (Array.map (fun (u, v) -> [| u; v |]) (G.edges g))
      in
      Alcotest.(check (option int)) "MpU = SpES"
        (Npc.Spes.optimum g ~p:3)
        (Npc.Mpu.optimum hg ~p:3)
    end
  done

let test_mpu_greedy () =
  let hg =
    Hypergraph.of_edges ~n:6
      [| [| 0; 1; 2 |]; [| 0; 1 |]; [| 3; 4; 5 |]; [| 0; 2 |] |]
  in
  (match Npc.Mpu.exact hg ~p:2 with
  | Some s -> Alcotest.(check int) "union of best two edges" 3 s.Npc.Mpu.union_size
  | None -> Alcotest.fail "exists");
  match Npc.Mpu.greedy hg ~p:2 with
  | Some s ->
      Alcotest.(check bool) "greedy union >= optimum" true
        (s.Npc.Mpu.union_size >= 3)
  | None -> Alcotest.fail "greedy exists"

(* OVP ---------------------------------------------------------------------- *)

let test_ovp_basic () =
  let inst =
    Npc.Ovp.create
      [|
        [| true; false; true |];
        [| false; true; false |];
        [| true; true; false |];
      |]
  in
  Alcotest.(check bool) "0 and 1 orthogonal" true (Npc.Ovp.orthogonal inst 0 1);
  Alcotest.(check bool) "0 and 2 not orthogonal" false
    (Npc.Ovp.orthogonal inst 0 2);
  (match Npc.Ovp.find_pair inst with
  | Some (0, 1) -> ()
  | _ -> Alcotest.fail "expected pair (0,1)");
  let inst2 =
    Npc.Ovp.create [| [| true; true |]; [| true; false |]; [| false; true |] |]
  in
  Alcotest.(check bool) "disjoint supports are orthogonal" true
    (Npc.Ovp.orthogonal inst2 1 2);
  Alcotest.(check bool) "shared support is not" false
    (Npc.Ovp.orthogonal inst2 0 1)

let test_ovp_no_pair () =
  (* All vectors share coordinate 0. *)
  let inst =
    Npc.Ovp.create (Array.make 5 [| true; false; true |])
  in
  Alcotest.(check bool) "no pair" false (Npc.Ovp.has_pair inst)

let test_ovp_packed_matches_naive () =
  let rng = Support.Rng.create 9 in
  for _ = 1 to 30 do
    let m = 2 + Support.Rng.int rng 10 and d = 1 + Support.Rng.int rng 100 in
    let inst = Npc.Ovp.random rng ~m ~d in
    let naive_orth i j =
      let ok = ref true in
      for x = 0 to d - 1 do
        if Npc.Ovp.coordinate inst i x && Npc.Ovp.coordinate inst j x then
          ok := false
      done;
      !ok
    in
    let naive_pair =
      let found = ref false in
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          if naive_orth i j then found := true
        done
      done;
      !found
    in
    Alcotest.(check bool) "packed = naive" naive_pair (Npc.Ovp.has_pair inst)
  done

let test_ovp_planted () =
  let rng = Support.Rng.create 15 in
  for _ = 1 to 10 do
    let inst = Npc.Ovp.random ~plant:true rng ~m:6 ~d:30 in
    Alcotest.(check bool) "planted pair found" true (Npc.Ovp.has_pair inst)
  done

(* 3-Partition -------------------------------------------------------------- *)

let test_three_partition_yes () =
  let inst = Npc.Three_partition.create [| 6; 6; 8; 6; 7; 7 |] in
  (* b = 20: {6,6,8} and {6,7,7}. *)
  Alcotest.(check int) "target" 20 (Npc.Three_partition.target inst);
  match Npc.Three_partition.solve inst with
  | None -> Alcotest.fail "solvable instance"
  | Some triplets ->
      Alcotest.(check bool) "valid solution" true
        (Npc.Three_partition.is_solution inst triplets)

let test_three_partition_no () =
  (* {6,6,6,6,7,9}, b = 20: the triplet containing 9 can only reach
     9+6+6 = 21 or 9+6+7 = 22, never 20. *)
  let inst = Npc.Three_partition.create [| 6; 6; 6; 6; 7; 9 |] in
  Alcotest.(check bool) "unsolvable" true
    (Npc.Three_partition.solve inst = None)

let test_three_partition_random_yes () =
  let rng = Support.Rng.create 21 in
  for _ = 1 to 10 do
    let inst = Npc.Three_partition.random_yes rng ~t:4 ~b:30 in
    match Npc.Three_partition.solve inst with
    | None -> Alcotest.fail "random_yes must be solvable"
    | Some sol ->
        Alcotest.(check bool) "valid" true
          (Npc.Three_partition.is_solution inst sol)
  done

let test_three_partition_validation () =
  (try
     ignore (Npc.Three_partition.create [| 1; 1; 2 |]);
     Alcotest.fail "should reject a_i <= b/4"
   with Invalid_argument _ -> ());
  (try
     ignore (Npc.Three_partition.create [| 6; 6 |]);
     Alcotest.fail "should reject count not divisible by 3"
   with Invalid_argument _ -> ())

(* Coloring ----------------------------------------------------------------- *)

let test_coloring () =
  let c5 = G.cycle 5 in
  (match Npc.Coloring.solve c5 with
  | None -> Alcotest.fail "odd cycle is 3-colorable"
  | Some col ->
      Alcotest.(check bool) "valid coloring" true
        (Npc.Coloring.is_valid_coloring c5 col));
  Alcotest.(check bool) "C5 not 2-colorable" false
    (Npc.Coloring.is_colorable ~k:2 c5);
  Alcotest.(check bool) "K4 not 3-colorable" false
    (Npc.Coloring.is_colorable (Npc.Coloring.k4 ()));
  Alcotest.(check bool) "K4 is 4-colorable" true
    (Npc.Coloring.is_colorable ~k:4 (Npc.Coloring.k4 ()));
  let pet = Npc.Coloring.petersen () in
  Alcotest.(check bool) "Petersen 3-colorable" true
    (Npc.Coloring.is_colorable pet);
  Alcotest.(check bool) "Petersen not 2-colorable" false
    (Npc.Coloring.is_colorable ~k:2 pet)

(* Clique ------------------------------------------------------------------- *)

let test_clique () =
  let g = G.of_edges ~n:6 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (4, 5) ] in
  Alcotest.(check int) "triangle" 3 (Npc.Clique.clique_number g);
  Alcotest.(check bool) "clique valid" true
    (Npc.Clique.is_clique g (Npc.Clique.max_clique g));
  Alcotest.(check int) "complete graph" 5 (Npc.Clique.clique_number (G.complete 5));
  Alcotest.(check bool) "has clique 3" true (Npc.Clique.has_clique g ~size:3);
  Alcotest.(check bool) "no clique 4" false (Npc.Clique.has_clique g ~size:4);
  match Npc.Clique.find_clique g ~size:2 with
  | Some c ->
      Alcotest.(check int) "requested size" 2 (Array.length c);
      Alcotest.(check bool) "is clique" true (Npc.Clique.is_clique g c)
  | None -> Alcotest.fail "2-clique exists"

(* 3DM ---------------------------------------------------------------------- *)

let test_three_dm () =
  let inst =
    Npc.Three_dm.create ~q:2 [ (0, 0, 0); (1, 1, 1); (0, 1, 0) ]
  in
  (match Npc.Three_dm.perfect_matching inst with
  | None -> Alcotest.fail "matching exists"
  | Some m ->
      Alcotest.(check bool) "valid" true (Npc.Three_dm.is_perfect_matching inst m));
  (* No matching: both triples collide on z = 0. *)
  let blocked = Npc.Three_dm.create ~q:2 [ (0, 0, 0); (1, 1, 0) ] in
  Alcotest.(check bool) "blocked" false
    (Npc.Three_dm.has_perfect_matching blocked)

let test_three_dm_random_yes () =
  let rng = Support.Rng.create 27 in
  for _ = 1 to 10 do
    let inst = Npc.Three_dm.random_yes rng ~q:5 ~extra:6 in
    Alcotest.(check bool) "planted matching found" true
      (Npc.Three_dm.has_perfect_matching inst)
  done

let suite =
  [
    Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "graph validation" `Quick test_graph_validation;
    Alcotest.test_case "SpES triangle" `Quick test_spes_triangle;
    Alcotest.test_case "SpES on cliques" `Quick test_spes_clique_connection;
    Alcotest.test_case "SpES greedy" `Quick test_spes_greedy_feasible;
    Alcotest.test_case "MpU = SpES on graphs" `Quick
      test_mpu_matches_spes_on_graphs;
    Alcotest.test_case "MpU greedy" `Quick test_mpu_greedy;
    Alcotest.test_case "OVP basics" `Quick test_ovp_basic;
    Alcotest.test_case "OVP no pair" `Quick test_ovp_no_pair;
    Alcotest.test_case "OVP packed = naive" `Quick test_ovp_packed_matches_naive;
    Alcotest.test_case "OVP planted" `Quick test_ovp_planted;
    Alcotest.test_case "3-partition yes" `Quick test_three_partition_yes;
    Alcotest.test_case "3-partition no" `Quick test_three_partition_no;
    Alcotest.test_case "3-partition random yes" `Quick
      test_three_partition_random_yes;
    Alcotest.test_case "3-partition validation" `Quick
      test_three_partition_validation;
    Alcotest.test_case "coloring" `Quick test_coloring;
    Alcotest.test_case "clique" `Quick test_clique;
    Alcotest.test_case "3DM" `Quick test_three_dm;
    Alcotest.test_case "3DM random yes" `Quick test_three_dm_random_yes;
  ]
