(* Validation of every construction in the paper: both solution-mapping
   directions, optimum correspondences at gadget scale, and the structural
   properties (degree bounds, hyperDAG-ness, rigidity) the proofs claim. *)

module H = Hypergraph
module P = Partition
module R = Reductions
module G = Npc.Graph

(* Lemma A.1 -------------------------------------------------------------- *)

let test_eps_reduction () =
  let rng = Support.Rng.create 3 in
  for _ = 1 to 8 do
    let n = 6 in
    let h =
      H.of_edges ~n
        (Array.init 5 (fun _ ->
             Support.Rng.sample_distinct rng ~n ~k:(2 + Support.Rng.int rng 2)))
    in
    let eps = 0.5 in
    let red = R.Eps_reduction.build ~eps ~k:2 h in
    let padded = R.Eps_reduction.padded red in
    (* cap(6, eps = 0.5, k = 2) = 4, so the padded graph has 8 nodes. *)
    Alcotest.(check int) "padding size" 8 (H.num_nodes padded);
    (* Optima agree. *)
    let opt_orig = Solvers.Exact.optimum ~eps h ~k:2 in
    let opt_padded = Solvers.Exact.optimum ~eps:0.0 padded ~k:2 in
    Alcotest.(check (option int)) "OPT preserved (Lemma A.1)" opt_orig
      opt_padded;
    (* Mapping a k-section back. *)
    (match Solvers.Exact.solve ~eps:0.0 padded ~k:2 with
    | Some { Solvers.Exact.part; cost } ->
        let restricted = R.Eps_reduction.restrict red part in
        Alcotest.(check int) "restriction preserves cost" cost
          (P.connectivity_cost h restricted);
        Alcotest.(check bool) "restriction is eps-balanced" true
          (P.is_balanced ~eps h restricted)
    | None -> Alcotest.fail "padded instance is feasible");
    (* Mapping an eps-balanced solution forward. *)
    match Solvers.Exact.solve ~eps h ~k:2 with
    | Some { Solvers.Exact.part; cost } ->
        let extended = R.Eps_reduction.extend red part in
        Alcotest.(check int) "extension preserves cost" cost
          (P.connectivity_cost padded extended);
        Alcotest.(check bool) "extension is a k-section" true
          (P.is_balanced ~eps:0.0 padded extended)
    | None -> Alcotest.fail "original instance is feasible"
  done

(* Theorem 4.1 / Lemma C.1 -------------------------------------------------- *)

let triangle_graph () = G.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ]

let test_spes_reduction_embed () =
  let g = triangle_graph () in
  let red = R.Spes_to_partition.build ~eps:0.0 (G.to_hypergraph g) ~k:2 ~p:1 in
  let h = R.Spes_to_partition.hypergraph red in
  (* Any single edge covers 2 vertices. *)
  let part = R.Spes_to_partition.embed red [| 0 |] in
  Alcotest.(check bool) "embedded partition balanced" true
    (P.is_balanced ~eps:0.0 h part);
  Alcotest.(check int) "embedded cost = covered vertices" 2
    (P.connectivity_cost h part);
  Alcotest.(check int) "covered_vertices" 2
    (R.Spes_to_partition.union_size red [| 0 |]);
  (* Extraction recovers a p-edge selection of the same objective. *)
  let chosen = R.Spes_to_partition.extract red part in
  Alcotest.(check int) "extracts p edges" 1 (Array.length chosen);
  Alcotest.(check int) "extracted objective" 2
    (R.Spes_to_partition.union_size red chosen)

let test_spes_reduction_optimum_agrees () =
  (* OPT_partition = OPT_SpES on the reduction instance (Lemma C.1),
     certified by the exact branch-and-bound. *)
  let g = triangle_graph () in
  let p = 1 in
  let red = R.Spes_to_partition.build ~eps:0.0 (G.to_hypergraph g) ~k:2 ~p in
  let h = R.Spes_to_partition.hypergraph red in
  let spes_opt =
    match Npc.Spes.optimum g ~p with Some v -> v | None -> assert false
  in
  Alcotest.(check int) "SpES optimum" 2 spes_opt;
  (* The partition optimum is at most the SpES optimum (embed), and the
     decision at spes_opt - 1 fails. *)
  Alcotest.(check bool) "decision at OPT" true
    (Solvers.Exact.decision h ~k:2 ~cost_limit:spes_opt);
  Alcotest.(check bool) "no solution below OPT (Lemma C.1)" false
    (Solvers.Exact.decision h ~k:2 ~cost_limit:(spes_opt - 1))

let test_spes_reduction_heuristic_roundtrip () =
  (* A multilevel partition of the reduction maps back to a valid SpES
     selection whose objective is at least the optimum. *)
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3); (0, 2) ] in
  let red = R.Spes_to_partition.build ~eps:0.0 (G.to_hypergraph g) ~k:2 ~p:2 in
  let h = R.Spes_to_partition.hypergraph red in
  let part =
    Solvers.Multilevel.partition
      ~config:{ Solvers.Multilevel.default_config with eps = 0.0 }
      (Support.Rng.create 7) h ~k:2
  in
  let chosen = R.Spes_to_partition.extract red part in
  let objective = R.Spes_to_partition.union_size red chosen in
  let opt = match Npc.Spes.optimum g ~p:2 with Some v -> v | None -> 99 in
  Alcotest.(check bool) "heuristic objective >= optimum" true (objective >= opt);
  Alcotest.(check bool) "objective <= all vertices" true (objective <= 4)

(* Lemma C.6 / Appendix C.3 -------------------------------------------------- *)

let test_delta2_structure () =
  let g = triangle_graph () in
  let red = R.Spes_to_partition.build_delta2 ~eps:0.0 g ~p:1 in
  let h = R.Spes_to_partition.hypergraph red in
  Alcotest.(check int) "Delta = 2 (Lemma C.6)" 2 (H.max_degree h);
  (* Bipartite hyperedge classes (the SpMV property of [30]): every node
     lies in at most one row edge and at most one non-row edge. *)
  let part = R.Spes_to_partition.embed red [| 0 |] in
  Alcotest.(check bool) "embedded balanced" true (P.is_balanced ~eps:0.0 h part);
  Alcotest.(check int) "embedded cost = covered" 2 (P.connectivity_cost h part);
  let chosen = R.Spes_to_partition.extract red part in
  Alcotest.(check int) "extracts p edges" 1 (Array.length chosen);
  (* Graphs whose first n' left A's grid no outsider slot for every vertex
     node: the size search grows n' until A has room. *)
  List.iter
    (fun (name, g, eps, p) ->
      List.iter
        (fun hyperdag ->
          let label = Fmt.str "%s, eps = %g, p = %d, hyperdag %b" name eps p hyperdag in
          let red = R.Spes_to_partition.build_delta2 ~eps ~hyperdag g ~p in
          let h = R.Spes_to_partition.hypergraph red in
          let chosen = Array.init p Fun.id in
          let part = R.Spes_to_partition.embed red chosen in
          Alcotest.(check int) ("Delta = 2, " ^ label) 2 (H.max_degree h);
          Alcotest.(check bool) ("embedded balanced, " ^ label) true
            (P.is_balanced ~eps h part);
          Alcotest.(check int) ("embedded cost = union, " ^ label)
            (R.Spes_to_partition.union_size red chosen)
            (P.connectivity_cost h part))
        [ false; true ])
    [
      ("3-node path", G.of_edges ~n:3 [ (0, 1); (1, 2) ], 0.0, 2);
      ( "square with diagonal",
        G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3); (0, 2) ],
        0.1,
        1 );
      ("K2", G.of_edges ~n:2 [ (0, 1) ], 0.1, 1);
      ("two disjoint edges", G.of_edges ~n:4 [ (0, 1); (2, 3) ], 0.1, 1);
    ]

let test_delta2_hyperdag () =
  (* Appendix C.3: with the extra outsiders the construction is a hyperDAG
     of degree <= 2, recognized by the linear-time algorithm. *)
  let g = triangle_graph () in
  let red = R.Spes_to_partition.build_delta2 ~eps:0.0 ~hyperdag:true g ~p:1 in
  let h = R.Spes_to_partition.hypergraph red in
  Alcotest.(check int) "Delta = 2" 2 (H.max_degree h);
  Alcotest.(check bool) "is a hyperDAG (Theorem 4.1 strongest form)" true
    (Hyperdag.is_hyperdag h);
  (* Cost correspondence still holds. *)
  let part = R.Spes_to_partition.embed red [| 2 |] in
  Alcotest.(check bool) "balanced" true (P.is_balanced ~eps:0.0 h part);
  Alcotest.(check int) "cost = covered" 2 (P.connectivity_cost h part)

(* Lemma D.2 machinery -------------------------------------------------------- *)

let test_mc_builder_at_most () =
  let b = H.Builder.create () in
  let s = H.Builder.add_nodes b 3 in
  let mc =
    R.Mc_builder.finalize b
      [ { R.Mc_builder.subset = s; bound = R.Mc_builder.At_most_red 1 } ]
  in
  let h = mc.R.Mc_builder.hypergraph in
  (* Enumerate all colorings of the 3 free nodes with anchors painted. *)
  Support.Util.iter_tuples ~base:2 ~len:3 (fun pattern ->
      let colors = Array.make (H.num_nodes h) 0 in
      R.Mc_builder.paint_anchors mc colors;
      Array.iteri (fun i c -> colors.(s.(i)) <- c) pattern;
      let part = P.create ~k:2 (Array.copy colors) in
      let reds = Support.Util.sum_array pattern in
      Alcotest.(check bool)
        (Fmt.str "at most 1 red: pattern with %d reds" reds)
        (reds <= 1)
        (R.Mc_builder.feasible mc part))

let test_mc_builder_at_least () =
  let b = H.Builder.create () in
  let s = H.Builder.add_nodes b 4 in
  let mc =
    R.Mc_builder.finalize b
      [ { R.Mc_builder.subset = s; bound = R.Mc_builder.At_least_red 2 } ]
  in
  let h = mc.R.Mc_builder.hypergraph in
  Support.Util.iter_tuples ~base:2 ~len:4 (fun pattern ->
      let colors = Array.make (H.num_nodes h) 0 in
      R.Mc_builder.paint_anchors mc colors;
      Array.iteri (fun i c -> colors.(s.(i)) <- c) pattern;
      let part = P.create ~k:2 (Array.copy colors) in
      let reds = Support.Util.sum_array pattern in
      Alcotest.(check bool)
        (Fmt.str "at least 2 red: pattern with %d reds" reds)
        (reds >= 2)
        (R.Mc_builder.feasible mc part))

let test_mc_builder_anchor_blocks_must_differ () =
  let b = H.Builder.create () in
  let s = H.Builder.add_nodes b 2 in
  let mc =
    R.Mc_builder.finalize b
      [ { R.Mc_builder.subset = s; bound = R.Mc_builder.At_most_red 1 } ]
  in
  let h = mc.R.Mc_builder.hypergraph in
  (* Both anchors the same color: infeasible regardless of the rest. *)
  let colors = Array.make (H.num_nodes h) 0 in
  let part = P.create ~k:2 colors in
  Alcotest.(check bool) "monochromatic anchors infeasible" false
    (R.Mc_builder.feasible mc part)

(* Lemma 6.3 -------------------------------------------------------------- *)

let test_mc_from_coloring_positive () =
  List.iter
    (fun g ->
      let red = R.Mc_from_coloring.build g in
      match Npc.Coloring.solve g with
      | None -> Alcotest.fail "expected colorable test graph"
      | Some coloring ->
          let part = R.Mc_from_coloring.embed red coloring in
          Alcotest.(check bool) "embedding is 0-cost feasible" true
            (R.Mc_from_coloring.is_zero_cost_feasible red part);
          Alcotest.(check (array int)) "extract inverts embed" coloring
            (R.Mc_from_coloring.extract red part))
    [ G.cycle 5; triangle_graph (); Npc.Coloring.petersen () ]

let test_mc_from_coloring_counts () =
  let g = triangle_graph () in
  let red = R.Mc_from_coloring.build g in
  (* 2 per vertex + 3 per edge + 1 anchor. *)
  Alcotest.(check int) "constraint count" ((2 * 3) + (3 * 3) + 1)
    (R.Mc_from_coloring.num_constraints red)

let test_mc_from_coloring_negative_embedding () =
  (* For K4 no proper coloring exists; check that embedding any improper
     coloring violates feasibility or cost 0. *)
  let g = Npc.Coloring.k4 () in
  Alcotest.(check bool) "K4 not 3-colorable" false (Npc.Coloring.is_colorable g);
  let red = R.Mc_from_coloring.build g in
  let improper = [| 0; 1; 2; 0 |] in
  let part = R.Mc_from_coloring.embed red improper in
  Alcotest.(check bool) "improper coloring does not embed feasibly" false
    (R.Mc_from_coloring.is_zero_cost_feasible red part)

(* Theorem 6.4 -------------------------------------------------------------- *)

let test_mc_from_ovp () =
  let rng = Support.Rng.create 11 in
  for trial = 1 to 12 do
    let inst =
      Npc.Ovp.random ~plant:(trial mod 2 = 0) rng ~m:5
        ~d:(4 + Support.Rng.int rng 4)
    in
    let red = R.Mc_from_ovp.build inst in
    let expected = Npc.Ovp.find_pair inst in
    let via_reduction = R.Mc_from_ovp.zero_cost_solution_exists red in
    Alcotest.(check bool) "OV pair exists iff 0-cost MC solution exists"
      (expected <> None) (via_reduction <> None);
    match expected with
    | None -> ()
    | Some pair ->
        let part = R.Mc_from_ovp.embed red pair in
        Alcotest.(check bool) "embedding feasible at cost 0" true
          (R.Mc_from_ovp.is_zero_cost_feasible red part);
        (match R.Mc_from_ovp.extract red part with
        | Some (i, j) ->
            Alcotest.(check bool) "extracted pair orthogonal" true
              (Npc.Ovp.orthogonal inst i j)
        | None -> Alcotest.fail "extraction failed")
  done

let test_mc_from_ovp_constraint_count () =
  let inst = Npc.Ovp.random (Support.Rng.create 1) ~m:6 ~d:10 in
  let red = R.Mc_from_ovp.build inst in
  (* D dimension constraints + 1 anchor-node constraint + 1 block anchor. *)
  Alcotest.(check int) "c = D + 2 (Theorem 6.4)" 12
    (R.Mc_from_ovp.num_constraints red)

(* Theorem 5.2 -------------------------------------------------------------- *)

let test_layered_from_coloring () =
  List.iter
    (fun g ->
      let red = R.Layered_from_coloring.build g in
      match Npc.Coloring.solve g with
      | None -> Alcotest.fail "expected colorable graph"
      | Some coloring ->
          let part = R.Layered_from_coloring.embed red coloring in
          Alcotest.(check bool) "layer-wise 0-cost feasible (Thm 5.2)" true
            (R.Layered_from_coloring.is_zero_cost_feasible red part);
          Alcotest.(check (array int)) "extract inverts embed" coloring
            (R.Layered_from_coloring.extract red part))
    [ triangle_graph (); G.cycle 5 ]

let test_layered_from_coloring_improper () =
  let g = triangle_graph () in
  let red = R.Layered_from_coloring.build g in
  (* An improper coloring must not embed feasibly. *)
  let part = R.Layered_from_coloring.embed red [| 0; 0; 1 |] in
  Alcotest.(check bool) "improper coloring rejected" false
    (R.Layered_from_coloring.is_zero_cost_feasible red part)

(* Theorem E.1 -------------------------------------------------------------- *)

let test_layering_from_three_partition () =
  let inst = Npc.Three_partition.create [| 6; 6; 8; 6; 7; 7 |] in
  let red = R.Layering_from_three_partition.build inst in
  match Npc.Three_partition.solve inst with
  | None -> Alcotest.fail "instance solvable"
  | Some triplets ->
      let pair = R.Layering_from_three_partition.embed red triplets in
      Alcotest.(check bool) "solution embeds as 0-cost feasible layering" true
        (R.Layering_from_three_partition.is_zero_cost_feasible red pair);
      let extracted = R.Layering_from_three_partition.extract red pair in
      Alcotest.(check bool) "extraction is a valid 3-partition" true
        (Npc.Three_partition.is_solution inst extracted)

let test_layering_from_three_partition_bad_layering () =
  let inst = Npc.Three_partition.create [| 6; 6; 8; 6; 7; 7 |] in
  let red = R.Layering_from_three_partition.build inst in
  match Npc.Three_partition.solve inst with
  | None -> Alcotest.fail "instance solvable"
  | Some triplets ->
      let layer, part = R.Layering_from_three_partition.embed red triplets in
      (* Swapping the two triplet windows misaligns group sizes unless the
         triplets have equal sums (they do) — instead corrupt the layering
         by moving one first-level node to the wrong window. *)
      let bad = Array.copy layer in
      let numbers = Npc.Three_partition.numbers inst in
      ignore numbers;
      (* Find a first-level node in layer 1 and push it to layer 3. *)
      let moved = ref false in
      Array.iteri
        (fun v l ->
          if (not !moved) && l = 1 && Hyperdag.Dag.in_degree
               (R.Layering_from_three_partition.dag red) v = 0
          then begin
            bad.(v) <- 3;
            moved := true
          end)
        layer;
      Alcotest.(check bool) "moved a gadget node" true !moved;
      Alcotest.(check bool) "corrupted layering is infeasible" false
        (R.Layering_from_three_partition.is_zero_cost_feasible red (bad, part))

(* Theorem 5.5 -------------------------------------------------------------- *)

let test_sched_from_three_partition_yes () =
  let inst = Npc.Three_partition.create [| 3; 3; 4 |] in
  (* t = 1, b = 10. *)
  let red = R.Sched_from_three_partition.build inst in
  Alcotest.(check bool) "perfect schedule exists" true
    (R.Sched_from_three_partition.perfect_schedule_exists red);
  match Npc.Three_partition.solve inst with
  | None -> Alcotest.fail "solvable"
  | Some triplets ->
      let sched = R.Sched_from_three_partition.embed red triplets in
      let dag = R.Sched_from_three_partition.dag red in
      Alcotest.(check bool) "embedded schedule valid" true
        (Scheduling.Schedule.is_valid ~k:2 dag sched);
      Alcotest.(check bool) "respects the fixed partition" true
        (Scheduling.Schedule.respects_partition sched
           (R.Sched_from_three_partition.assignment red));
      Alcotest.(check int) "perfect makespan"
        (R.Sched_from_three_partition.target red)
        (Scheduling.Schedule.makespan sched)

let test_sched_from_three_partition_no () =
  let inst = Npc.Three_partition.create [| 6; 6; 6; 6; 7; 9 |] in
  Alcotest.(check bool) "3-partition unsolvable" true
    (Npc.Three_partition.solve inst = None);
  let red = R.Sched_from_three_partition.build inst in
  Alcotest.(check bool) "no perfect schedule (Thm 5.5)" false
    (R.Sched_from_three_partition.perfect_schedule_exists red)

(* Every valid 3-Partition instance as a sorted multiset: 3t numbers with
   b/4 < a_i < b/2 summing to t * b, for every b <= max_b. *)
let three_partition_instances ~t ~max_b =
  let acc = ref [] in
  for b = 1 to max_b do
    let lo = (b / 4) + 1 and hi = (b - 1) / 2 in
    let rec go len first sum prefix =
      if len = 3 * t then begin
        if sum = t * b then acc := Array.of_list (List.rev prefix) :: !acc
      end
      else
        for a = first to hi do
          if sum + (a * ((3 * t) - len)) <= t * b then
            go (len + 1) a (sum + a) (a :: prefix)
        done
    in
    go 0 lo 0 []
  done;
  List.rev !acc

(* The mu_p search must decide no-instances as exactly as yes-instances:
   check it against the 3-Partition solver on every small instance. *)
let test_sched_from_three_partition_agrees_with_solver () =
  List.iter
    (fun (t, max_b, total, no) ->
      let instances = three_partition_instances ~t ~max_b in
      Alcotest.(check int)
        (Printf.sprintf "t=%d, b<=%d: instances" t max_b)
        total (List.length instances);
      let unsolvable = ref 0 in
      List.iter
        (fun numbers ->
          let inst = Npc.Three_partition.create numbers in
          let solvable = Npc.Three_partition.solve inst <> None in
          if not solvable then incr unsolvable;
          Alcotest.(check bool)
            (Fmt.str "mu_p = n/2 on %a" Fmt.(Dump.array int) numbers)
            solvable
            (R.Sched_from_three_partition.perfect_schedule_exists
               (R.Sched_from_three_partition.build inst)))
        instances;
      Alcotest.(check int)
        (Printf.sprintf "t=%d, b<=%d: no-instances" t max_b)
        no !unsolvable)
    [ (2, 20, 51, 9); (3, 13, 12, 1) ]

let test_sched_from_three_partition_dag_class () =
  let inst = Npc.Three_partition.create [| 3; 3; 4 |] in
  let unrooted = R.Sched_from_three_partition.build inst in
  Alcotest.(check bool) "chain graph (App F)" true
    (Hyperdag.Dag.is_chain_graph (R.Sched_from_three_partition.dag unrooted));
  let rooted = R.Sched_from_three_partition.build ~rooted:true inst in
  Alcotest.(check bool) "out-forest when rooted" true
    (Hyperdag.Dag.is_out_forest (R.Sched_from_three_partition.dag rooted))

let test_sched_from_clique () =
  (* Triangle plus pendant edges: clique number 3. *)
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (0, 2); (2, 3); (0, 3) ] in
  let red = R.Sched_from_clique.build g ~l:3 in
  Alcotest.(check bool) "clique exists => perfect schedule" true
    (R.Sched_from_clique.perfect_schedule_exists red);
  (match Npc.Clique.find_clique g ~size:3 with
  | None -> Alcotest.fail "triangle exists"
  | Some clique ->
      let sched = R.Sched_from_clique.embed red clique in
      let dag = R.Sched_from_clique.dag red in
      Alcotest.(check bool) "embedded schedule valid" true
        (Scheduling.Schedule.is_valid ~k:2 dag sched);
      Alcotest.(check bool) "respects partition" true
        (Scheduling.Schedule.respects_partition sched
           (R.Sched_from_clique.assignment red));
      Alcotest.(check int) "perfect makespan"
        (R.Sched_from_clique.target red)
        (Scheduling.Schedule.makespan sched));
  (* Bounded height: critical path of the whole DAG is constant. *)
  Alcotest.(check bool) "bounded height" true
    (Hyperdag.Dag.critical_path_length (R.Sched_from_clique.dag red) <= 4)

let test_sched_from_clique_negative () =
  (* Path graph: no triangle. *)
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let red = R.Sched_from_clique.build g ~l:3 in
  Alcotest.(check bool) "no clique => no perfect schedule" false
    (R.Sched_from_clique.perfect_schedule_exists red)

(* Lemma H.2 -------------------------------------------------------------- *)

let test_assignment_from_three_dm_yes () =
  let inst =
    Npc.Three_dm.create ~q:2 [ (0, 0, 0); (1, 1, 1); (0, 1, 1); (1, 0, 0) ]
  in
  let red = R.Assignment_from_three_dm.build inst in
  (match Npc.Three_dm.perfect_matching inst with
  | None -> Alcotest.fail "matching exists"
  | Some matching ->
      let leaves = R.Assignment_from_three_dm.embed red matching in
      Alcotest.(check int) "embedded matching hits the target gain"
        (R.Assignment_from_three_dm.target_gain red)
        (R.Assignment_from_three_dm.gain red leaves));
  Alcotest.(check bool) "reduction decision: yes" true
    (R.Assignment_from_three_dm.matching_exists_via_assignment red)

let test_assignment_from_three_dm_no () =
  (* Both triples collide on z = 0: no perfect matching. *)
  let inst = Npc.Three_dm.create ~q:2 [ (0, 0, 0); (1, 1, 0) ] in
  Alcotest.(check bool) "no matching" false
    (Npc.Three_dm.has_perfect_matching inst);
  let red = R.Assignment_from_three_dm.build inst in
  Alcotest.(check bool) "reduction decision: no" false
    (R.Assignment_from_three_dm.matching_exists_via_assignment red)

(* Lemma B.3 ------------------------------------------------------------------ *)

let test_hyperdag_np_hard () =
  let hg =
    H.of_edges ~n:4 [| [| 0; 1 |]; [| 1; 2; 3 |]; [| 0; 3 |] |]
  in
  let red = R.Hyperdag_np_hard.build ~eps:0.5 hg ~k:2 in
  let derived = R.Hyperdag_np_hard.hypergraph red in
  Alcotest.(check bool) "derived instance is a hyperDAG (Lemma B.3)" true
    (Hyperdag.is_hyperdag derived);
  let eps' = R.Hyperdag_np_hard.eps' red in
  Alcotest.(check bool) "eps' > 0" true (eps' > 0.0);
  (* Forward: every eps-balanced partition maps to an eps'-balanced
     partition of the same cost. *)
  let checked = ref 0 in
  Support.Util.iter_tuples ~base:2 ~len:4 (fun colors ->
      let part = P.create ~k:2 (Array.copy colors) in
      if P.is_balanced ~eps:0.5 hg part then begin
        incr checked;
        let ext = R.Hyperdag_np_hard.extend red part in
        Alcotest.(check bool) "extension balanced" true
          (P.is_balanced ~eps:eps' derived ext);
        Alcotest.(check int) "extension preserves cost"
          (P.connectivity_cost hg part)
          (P.connectivity_cost derived ext);
        (* Backward inverts forward. *)
        let back = R.Hyperdag_np_hard.restrict red ext in
        Alcotest.(check bool) "restrict inverts extend" true
          (P.equal back part)
      end);
  Alcotest.(check bool) "checked several partitions" true (!checked >= 4)

(* Appendix I.1 ----------------------------------------------------------------- *)

let test_two_level_block () =
  let b = H.Builder.create () in
  let blk = R.Counterexamples.two_level_block b ~first_size:3 ~second_size:5 in
  let hg = H.Builder.build b in
  Alcotest.(check bool) "two-level block is a hyperDAG" true
    (Hyperdag.is_hyperdag hg);
  (* Splitting the second group costs at least first_size. *)
  let best = ref max_int in
  Support.Util.iter_tuples ~base:2 ~len:5 (fun pattern ->
      let mono = Array.for_all (fun c -> c = pattern.(0)) pattern in
      if not mono then begin
        let colors = Array.make 8 0 in
        Array.iteri
          (fun i c -> colors.(blk.R.Counterexamples.second.(i)) <- c)
          pattern;
        (* First-group nodes colored to their best side. *)
        let part = P.create ~k:2 colors in
        let c = P.connectivity_cost hg part in
        if c < !best then best := c
      end);
  Alcotest.(check bool) "splitting second group costs >= first_size" true
    (!best >= 3)

let test_nine_blocks_hyperdag () =
  let t = R.Counterexamples.nine_blocks_hyperdag ~unit_size:2 in
  let hg = t.R.Counterexamples.hypergraph in
  Alcotest.(check int) "n = 72u" 144 (H.num_nodes hg);
  Alcotest.(check bool) "construction is a hyperDAG (App I.1)" true
    (Hyperdag.is_hyperdag hg);
  (* The direct 4-way pairing still works: large_i + small_i in part i. *)
  let part = R.Counterexamples.nine_blocks_hyperdag_direct t in
  Alcotest.(check bool) "direct pairing balanced" true
    (P.is_balanced ~eps:0.0 hg part);
  Alcotest.(check bool) "direct pairing cheap" true
    (P.connectivity_cost hg part <= 5)

(* Counterexamples ------------------------------------------------------------ *)

let test_serial_concatenation () =
  let dag, bad = R.Counterexamples.serial_concatenation ~half:4 in
  let hg = Hyperdag.hypergraph_of_dag dag in
  Alcotest.(check bool) "perfectly balanced" true
    (P.is_balanced ~eps:0.0 hg bad);
  (* The split costs no more than the parallel interleaving... *)
  let interleave = P.of_predicate ~k:2 ~n:8 (fun v -> v mod 2) in
  Alcotest.(check bool) "no communication advantage for interleaving" true
    (P.connectivity_cost hg bad <= P.connectivity_cost hg interleave);
  (* ... and yet zero parallelism (Figure 4): mu_p = n while mu = n/2. *)
  Alcotest.(check int) "mu = n/2" 4 (Scheduling.Mu.exact_makespan dag ~k:2);
  Alcotest.(check int) "mu_p = n"
    (Hyperdag.Dag.num_nodes dag)
    (Scheduling.Mu.exact_makespan_fixed dag (P.assignment bad) ~k:2);
  Alcotest.(check int) "interleaving parallelizes" 4
    (Scheduling.Mu.exact_makespan_fixed dag (P.assignment interleave) ~k:2)

let test_serial_concatenation_certified () =
  (* Figure 4's split is not only balanced but an optimal bisection, so its
     zero parallelism costs no communication at all. *)
  List.iter
    (fun half ->
      let dag, split = R.Counterexamples.serial_concatenation ~half in
      let hg = Hyperdag.hypergraph_of_dag dag in
      let label = Fmt.str "half = %d" half in
      Alcotest.(check bool) ("balanced, " ^ label) true
        (P.is_balanced ~eps:0.0 hg split);
      Alcotest.(check int) ("split cost, " ^ label) half
        (P.connectivity_cost hg split);
      Alcotest.(check (option int)) ("exact optimum, " ^ label) (Some half)
        (Solvers.Exact.optimum ~eps:0.0 hg ~k:2))
    [ 3; 5; 8 ]

let test_two_branch () =
  let t = R.Counterexamples.two_branch ~b:6 in
  let hg = Hyperdag.hypergraph_of_dag t.R.Counterexamples.dag in
  let layers = Hyperdag.Layering.earliest_groups t.R.Counterexamples.dag in
  let branchy = R.Counterexamples.two_branch_branch_coloring t in
  Alcotest.(check int) "branch coloring costs 2" 2
    (P.connectivity_cost hg branchy);
  Alcotest.(check bool) "branch coloring is layer-wise infeasible" false
    (P.Layerwise.feasible ~variant:P.Relaxed ~eps:0.0 layers branchy);
  let layerwise = R.Counterexamples.two_branch_layerwise t in
  Alcotest.(check bool) "layer-wise solution feasible" true
    (P.Layerwise.feasible ~variant:P.Relaxed ~eps:0.0 layers layerwise);
  Alcotest.(check bool) "layer-wise cost Theta(b)" true
    (P.connectivity_cost hg layerwise >= 4)

let test_nine_blocks () =
  let t = R.Counterexamples.nine_blocks ~unit_size:3 in
  let hg = t.R.Counterexamples.hypergraph in
  let direct = R.Counterexamples.nine_blocks_direct t in
  Alcotest.(check bool) "direct 4-way balanced" true
    (P.is_balanced ~eps:0.0 hg direct);
  Alcotest.(check bool) "direct 4-way cost O(1)" true
    (P.connectivity_cost hg direct <= 5);
  let first = R.Counterexamples.nine_blocks_first_bisection t in
  Alcotest.(check bool) "first bisection balanced" true
    (P.is_balanced ~eps:0.0 hg first);
  Alcotest.(check int) "first bisection cost 0" 0
    (P.connectivity_cost hg first);
  (* Recursing on the large side must split a block: optimum >= 2u - 1. *)
  let large_ids = Array.concat (Array.to_list t.R.Counterexamples.large) in
  let side = H.restrict hg large_ids in
  match Solvers.Exact.solve ~eps:0.0 side ~k:2 with
  | None -> Alcotest.fail "second split feasible"
  | Some { Solvers.Exact.cost; _ } ->
      Alcotest.(check bool) "second split costs Theta(n) (Lemma 7.2)" true
        (cost >= (2 * 3) - 1)

let test_star () =
  let t = R.Counterexamples.star ~k:4 ~m:10 ~unit_size:2 in
  let hg = t.R.Counterexamples.hypergraph in
  let flat_opt = R.Counterexamples.star_flat_optimum t in
  let hier_opt = R.Counterexamples.star_hier_optimum t in
  Alcotest.(check bool) "flat optimum balanced" true
    (P.is_balanced ~eps:0.0 hg flat_opt);
  Alcotest.(check bool) "hier optimum balanced" true
    (P.is_balanced ~eps:0.0 hg hier_opt);
  (* Flat costs: (k-1) m vs (k-1) m + (k-1). *)
  Alcotest.(check int) "flat cost of regular optimum" 30
    (P.connectivity_cost hg flat_opt);
  Alcotest.(check int) "flat cost of hierarchical optimum" 33
    (P.connectivity_cost hg hier_opt);
  (* Hierarchical costs under (2,2), g1 = 8: the two-step method picks the
     flat optimum and pays ~ g1/2 more. *)
  let topo = Hierarchy.Topology.two_level ~b1:2 ~b2:2 ~g1:8.0 in
  let two_flat = Hierarchy.Two_step.of_flat topo hg flat_opt in
  let two_hier = Hierarchy.Two_step.of_flat topo hg hier_opt in
  Alcotest.(check bool) "two-step prefers the flat optimum" true
    (two_flat.Hierarchy.Two_step.flat_cost
    < two_hier.Hierarchy.Two_step.flat_cost);
  Alcotest.(check bool) "hier cost separation (Theorem 7.4)" true
    (two_flat.Hierarchy.Two_step.hier_cost
    > 2.0 *. two_hier.Hierarchy.Two_step.hier_cost)

let test_star_flat_optimum_certified () =
  (* Fig 9 where the blocks are large enough for m: the exact flat
     optimum is the construction's (k-1) m.  At unit_size 2 it is not, as
     an optimum splits blocks instead (Lemma A.5: a 2-node block costs
     nothing to split). *)
  List.iter
    (fun (m, unit_size) ->
      let t = R.Counterexamples.star ~k:4 ~m ~unit_size in
      let hg = t.R.Counterexamples.hypergraph in
      let claimed =
        P.connectivity_cost hg (R.Counterexamples.star_flat_optimum t)
      in
      Alcotest.(check int) (Fmt.str "claimed (k-1) m, m = %d" m) (3 * m)
        claimed;
      Alcotest.(check (option int))
        (Fmt.str "exact optimum, m = %d, unit_size = %d" m unit_size)
        (Some claimed)
        (Solvers.Exact.optimum ~eps:0.0 hg ~k:4))
    [ (2, 3); (3, 4) ]

let test_star_hier_optimum_certified () =
  (* Fig 9 under Definition 7.1 on the (2,2) tree at eps = 0: the exact
     hierarchical optimum beats the construction's "hierarchical optimum"
     at every size the search certifies, so E8 compares against a
     constructed partition, not an optimum. *)
  List.iter
    (fun (m, unit_size, g1, optimum, constructed) ->
      let t = R.Counterexamples.star ~k:4 ~m ~unit_size in
      let hg = t.R.Counterexamples.hypergraph in
      let topo = Hierarchy.Topology.two_level ~b1:2 ~b2:2 ~g1 in
      let label = Fmt.str "(m, u) = (%d, %d), g1 = %g" m unit_size g1 in
      Alcotest.(check (float 1e-9)) ("constructed " ^ label) constructed
        (Hierarchy.Hier_cost.cost topo hg (R.Counterexamples.star_hier_optimum t));
      match Solvers.Exact.hierarchical ~eps:0.0 topo hg with
      | None -> Alcotest.fail ("feasible " ^ label)
      | Some { Solvers.Exact.cost; part } ->
          Alcotest.(check (float 1e-9)) ("optimum " ^ label) optimum cost;
          Alcotest.(check (float 1e-9)) ("priced as Def 7.1 " ^ label) cost
            (Hierarchy.Hier_cost.cost topo hg part))
    [
      (1, 2, 4.0, 9.0, 15.0);
      (2, 2, 4.0, 12.0, 18.0);
      (3, 2, 4.0, 18.0, 21.0);
      (2, 3, 2.0, 10.0, 12.0);
    ]

let test_nine_blocks_direct_certified () =
  (* E7's direct partition is optimal at E7's sizes n = 36, 144 and 576, and
     E15b's hyperDAG one at n = 288 and 576: each is balanced at eps = 0
     and costs 5, and no 4-way partition costs 4.  (E15b's n = 144
     certifies too, but its search takes about 40 s.) *)
  List.iter
    (fun (label, hg, direct) ->
      Alcotest.(check bool) ("direct balanced, " ^ label) true
        (P.is_balanced ~eps:0.0 hg direct);
      Alcotest.(check int) ("direct cost, " ^ label) 5
        (P.connectivity_cost hg direct);
      Alcotest.(check bool) ("nothing below 5, " ^ label) true
        (Option.is_none (Solvers.Exact.solve ~eps:0.0 ~upper_bound:4 hg ~k:4)))
    (List.map
       (fun unit_size ->
         let t = R.Counterexamples.nine_blocks ~unit_size in
         ( Fmt.str "unit_size = %d" unit_size,
           t.R.Counterexamples.hypergraph,
           R.Counterexamples.nine_blocks_direct t ))
       [ 3; 12; 48 ]
    @ List.map
        (fun unit_size ->
          let t = R.Counterexamples.nine_blocks_hyperdag ~unit_size in
          ( Fmt.str "hyperDAG, unit_size = %d" unit_size,
            t.R.Counterexamples.hypergraph,
            R.Counterexamples.nine_blocks_hyperdag_direct t ))
        [ 4; 8 ])

let test_two_branch_layerwise_certified () =
  (* Fig 6 under the layer-wise caps alone (global eps = 1 binds nothing
     at k = 2): the layer-wise optimum is b + 1, one below the constructed
     layer-wise partition's b + 2, and still Theta(b) against the
     branch coloring's 2. *)
  List.iter
    (fun b ->
      let t = R.Counterexamples.two_branch ~b in
      let dag = t.R.Counterexamples.dag in
      let hg = Hyperdag.hypergraph_of_dag dag in
      let layers = Hyperdag.Layering.earliest_groups dag in
      let constrained =
        Solvers.Constrained.of_layers ~variant:P.Relaxed ~eps:0.0 ~k:2 layers
          ~n:(H.num_nodes hg)
      in
      let solve ?upper_bound () =
        Solvers.Exact.solve ~variant:P.Relaxed ~eps:1.0 ?upper_bound
          ~constrained hg ~k:2
      in
      let label = Fmt.str "b = %d" b in
      Alcotest.(check int) ("constructed, " ^ label) (b + 2)
        (P.connectivity_cost hg (R.Counterexamples.two_branch_layerwise t));
      (match solve () with
      | None -> Alcotest.fail ("feasible, " ^ label)
      | Some { Solvers.Exact.cost; part } ->
          Alcotest.(check int) ("optimum, " ^ label) (b + 1) cost;
          Alcotest.(check bool) ("layer-wise feasible, " ^ label) true
            (P.Layerwise.feasible ~variant:P.Relaxed ~eps:0.0 layers part));
      Alcotest.(check bool) ("nothing at b or below, " ^ label) true
        (Option.is_none (solve ~upper_bound:b ())))
    [ 4; 8 ]

let test_hendrickson_kolda () =
  let k = 4 and sinks = 6 in
  let dag = R.Counterexamples.bipartite_sources_sinks ~sources:(k - 1) ~sinks in
  let hyperdag = Hyperdag.hypergraph_of_dag dag in
  let hk = R.Counterexamples.hk_hypergraph dag in
  (* Sinks red (color 0), source i gets color i + 1... sources take the
     other k-1 colors (Appendix B). *)
  let colors =
    Array.init (Hyperdag.Dag.num_nodes dag) (fun v ->
        if v < k - 1 then v + 1 else 0)
  in
  let part_hd = P.create ~k colors and part_hk = P.create ~k colors in
  Alcotest.(check int) "hyperDAG model: k - 1 transfers" (k - 1)
    (P.connectivity_cost hyperdag part_hd);
  Alcotest.(check bool) "HK model overestimates by Theta(m)" true
    (P.connectivity_cost hk part_hk >= sinks * (k - 1))

let suite =
  [
    Alcotest.test_case "Lemma A.1 eps reduction" `Quick test_eps_reduction;
    Alcotest.test_case "Thm 4.1 embed" `Quick test_spes_reduction_embed;
    Alcotest.test_case "Thm 4.1 optimum agrees" `Slow
      test_spes_reduction_optimum_agrees;
    Alcotest.test_case "Thm 4.1 heuristic roundtrip" `Slow
      test_spes_reduction_heuristic_roundtrip;
    Alcotest.test_case "Lemma C.6 Delta=2" `Quick test_delta2_structure;
    Alcotest.test_case "App C.3 hyperDAG" `Quick test_delta2_hyperdag;
    Alcotest.test_case "Lemma D.2 at-most" `Quick test_mc_builder_at_most;
    Alcotest.test_case "Lemma D.2 at-least" `Quick test_mc_builder_at_least;
    Alcotest.test_case "App D.3 anchors differ" `Quick
      test_mc_builder_anchor_blocks_must_differ;
    Alcotest.test_case "Lemma 6.3 positive" `Quick test_mc_from_coloring_positive;
    Alcotest.test_case "Lemma 6.3 counts" `Quick test_mc_from_coloring_counts;
    Alcotest.test_case "Lemma 6.3 improper rejected" `Quick
      test_mc_from_coloring_negative_embedding;
    Alcotest.test_case "Thm 6.4 OV reduction" `Quick test_mc_from_ovp;
    Alcotest.test_case "Thm 6.4 constraint count" `Quick
      test_mc_from_ovp_constraint_count;
    Alcotest.test_case "Thm 5.2 layered coloring" `Quick
      test_layered_from_coloring;
    Alcotest.test_case "Thm 5.2 improper rejected" `Quick
      test_layered_from_coloring_improper;
    Alcotest.test_case "Thm E.1 flexible layering" `Quick
      test_layering_from_three_partition;
    Alcotest.test_case "Thm E.1 corrupted layering" `Quick
      test_layering_from_three_partition_bad_layering;
    Alcotest.test_case "Thm 5.5 3-partition yes" `Quick
      test_sched_from_three_partition_yes;
    Alcotest.test_case "Thm 5.5 3-partition no" `Quick
      test_sched_from_three_partition_no;
    Alcotest.test_case "Thm 5.5 agrees with solver" `Quick
      test_sched_from_three_partition_agrees_with_solver;
    Alcotest.test_case "Thm 5.5 DAG classes" `Quick
      test_sched_from_three_partition_dag_class;
    Alcotest.test_case "Thm 5.5 clique yes" `Slow test_sched_from_clique;
    Alcotest.test_case "Thm 5.5 clique no" `Slow test_sched_from_clique_negative;
    Alcotest.test_case "Lemma H.2 3DM yes" `Quick
      test_assignment_from_three_dm_yes;
    Alcotest.test_case "Lemma H.2 3DM no" `Quick test_assignment_from_three_dm_no;
    Alcotest.test_case "Lemma B.3 hyperDAG NP-hardness" `Quick
      test_hyperdag_np_hard;
    Alcotest.test_case "App I.1 two-level block" `Quick test_two_level_block;
    Alcotest.test_case "App I.1 nine blocks hyperDAG" `Quick
      test_nine_blocks_hyperdag;
    Alcotest.test_case "Figure 4 serial concat" `Quick test_serial_concatenation;
    Alcotest.test_case "Figure 6 two-branch" `Quick test_two_branch;
    Alcotest.test_case "Lemma 7.2 nine blocks" `Quick test_nine_blocks;
    Alcotest.test_case "Theorem 7.4 star" `Quick test_star;
    Alcotest.test_case "Fig 9 star flat optimum certified" `Quick
      test_star_flat_optimum_certified;
    Alcotest.test_case "Fig 9 star hierarchical optimum certified" `Quick
      test_star_hier_optimum_certified;
    Alcotest.test_case "Fig 8 nine blocks direct optimum certified" `Quick
      test_nine_blocks_direct_certified;
    Alcotest.test_case "Fig 6 two-branch layer-wise optimum certified" `Quick
      test_two_branch_layerwise_certified;
    Alcotest.test_case "Fig 4 split certified optimal" `Quick
      test_serial_concatenation_certified;
    Alcotest.test_case "Hendrickson-Kolda example" `Quick
      test_hendrickson_kolda;
  ]
