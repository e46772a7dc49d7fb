(* Tests for DAGs, hyperDAG conversion, recognition (Lemma B.2) and
   layerings (Section 5.1). *)

module H = Hypergraph
module HD = Hyperdag
module D = Hyperdag.Dag

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  D.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_dag_basics () =
  let d = diamond () in
  Alcotest.(check int) "n" 4 (D.num_nodes d);
  Alcotest.(check int) "m" 4 (D.num_edges d);
  Alcotest.(check int) "out degree" 2 (D.out_degree d 0);
  Alcotest.(check int) "in degree" 2 (D.in_degree d 3);
  Alcotest.(check (array int)) "succs" [| 1; 2 |] (D.succs d 0);
  Alcotest.(check (array int)) "preds" [| 1; 2 |] (D.preds d 3);
  Alcotest.(check bool) "has edge" true (D.has_edge d 1 3);
  Alcotest.(check bool) "no edge" false (D.has_edge d 1 2);
  Alcotest.(check (array int)) "sources" [| 0 |] (D.sources d);
  Alcotest.(check (array int)) "sinks" [| 3 |] (D.sinks d);
  Alcotest.(check int) "critical path" 3 (D.critical_path_length d)

let test_dag_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Dag.of_edges: self-loop")
    (fun () -> ignore (D.of_edges ~n:2 [ (0, 0) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Dag.of_edges: duplicate edge") (fun () ->
      ignore (D.of_edges ~n:2 [ (0, 1); (0, 1) ]));
  (try
     ignore (D.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ]);
     Alcotest.fail "expected Cycle"
   with D.Cycle -> ())

let test_topological_order () =
  let d = diamond () in
  let topo = D.topological_order d in
  let pos = Array.make 4 0 in
  Array.iteri (fun i v -> pos.(v) <- i) topo;
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "topo order respects edges" true (pos.(u) < pos.(v)))
    (D.edges d)

let test_concat_serial () =
  let chain2 = D.of_edges ~n:2 [ (0, 1) ] in
  let c = D.concat_serial chain2 chain2 in
  Alcotest.(check int) "n" 4 (D.num_nodes c);
  Alcotest.(check bool) "bridge edge" true (D.has_edge c 1 2);
  Alcotest.(check int) "path length" 4 (D.critical_path_length c)

let test_reverse () =
  let d = diamond () in
  let r = D.reverse d in
  Alcotest.(check bool) "reversed edge" true (D.has_edge r 3 1);
  Alcotest.(check (array int)) "reversed sources" [| 3 |] (D.sources r)

(* Conversion (Definition 3.2) ---------------------------------------------- *)

let test_of_dag_diamond () =
  let hg, gens = HD.of_dag (diamond ()) in
  (* Nodes 0, 1, 2 have successors; node 3 is a sink. *)
  Alcotest.(check int) "hyperedges = non-sinks" 3 (H.num_edges hg);
  Alcotest.(check (array int)) "generators" [| 0; 1; 2 |] gens;
  Alcotest.(check (array int)) "edge of 0 = {0,1,2}" [| 0; 1; 2 |]
    (H.edge_pins hg 0);
  Alcotest.(check (array int)) "edge of 1 = {1,3}" [| 1; 3 |] (H.edge_pins hg 1);
  Alcotest.(check bool) "conversion yields a hyperDAG" true
    (HD.is_hyperdag hg)

let test_of_dag_indegree_bound () =
  (* In-degree <= 2 in the DAG gives Delta <= 3 in the hyperDAG
     (Section 3.2). *)
  let rng = Support.Rng.create 17 in
  for _ = 1 to 20 do
    let n = 8 in
    let edges = ref [] in
    for v = 1 to n - 1 do
      let d = Support.Rng.int rng (min 3 v) in
      let preds = Support.Rng.sample_distinct rng ~n:v ~k:d in
      Array.iter (fun u -> edges := (u, v) :: !edges) preds
    done;
    let dag = D.of_edges ~n !edges in
    let indeg_max =
      Support.Util.max_array (Array.init n (fun v -> D.in_degree dag v))
    in
    let hg, _ = HD.of_dag dag in
    Alcotest.(check bool) "Delta <= indeg_max + 1" true
      (H.max_degree hg <= indeg_max + 1)
  done

(* Recognition (Lemma B.2) --------------------------------------------------- *)

let test_triangle_not_hyperdag () =
  (* Figure 2: the triangle is not a hyperDAG. *)
  let tri = H.of_edges ~n:3 [| [| 0; 1 |]; [| 1; 2 |]; [| 0; 2 |] |] in
  Alcotest.(check bool) "not a hyperDAG" false (HD.is_hyperdag tri);
  match HD.violating_subset tri with
  | None -> Alcotest.fail "expected a violating subset"
  | Some nodes ->
      Alcotest.(check (array int)) "whole triangle violates" [| 0; 1; 2 |] nodes

let test_too_many_edges_not_hyperdag () =
  (* |E| > n - 1 cannot be a hyperDAG (Appendix B). *)
  let hg =
    H.of_edges ~n:3
      [| [| 0; 1 |]; [| 1; 2 |]; [| 0; 2 |]; [| 0; 1; 2 |] |]
  in
  Alcotest.(check bool) "too dense" false (HD.is_hyperdag hg)

let test_recognize_two_edges () =
  (* Appendix B: 3 nodes with two size-2 hyperedges is a hyperDAG with two
     non-isomorphic witnesses; we accept either. *)
  let hg = H.of_edges ~n:3 [| [| 0; 1 |]; [| 1; 2 |] |] in
  match HD.recognize hg with
  | None -> Alcotest.fail "should be a hyperDAG"
  | Some gens ->
      Alcotest.(check bool) "assignment valid" true
        (HD.valid_generator_assignment hg gens)

let test_densest_hyperdag_recognized () =
  for size = 2 to 8 do
    let hg = H.Gadgets.dense_hyperdag_hypergraph ~size in
    Alcotest.(check bool) "dense block is hyperDAG" true (HD.is_hyperdag hg)
  done

let test_roundtrip_dag_hyperdag () =
  (* DAG -> hyperDAG -> witness DAG -> hyperDAG gives the same hypergraph
     up to hyperedge order (hyperedges are sets {u} + succs u). *)
  let rng = Support.Rng.create 23 in
  for _ = 1 to 30 do
    let n = 2 + Support.Rng.int rng 8 in
    let edges = ref [] in
    for v = 1 to n - 1 do
      let d = Support.Rng.int rng (min 3 v) in
      Array.iter
        (fun u -> edges := (u, v) :: !edges)
        (Support.Rng.sample_distinct rng ~n:v ~k:d)
    done;
    let dag = D.of_edges ~n !edges in
    let hg, _ = HD.of_dag dag in
    match HD.to_dag hg with
    | None -> Alcotest.fail "hyperDAG should reconstruct"
    | Some dag' ->
        let hg', _ = HD.of_dag dag' in
        let norm h =
          List.sort Support.Order.int_array
            (List.init (H.num_edges h) (fun e -> H.edge_pins h e))
        in
        Alcotest.(check bool) "same hyperedge multiset" true
          (norm hg = norm hg')
  done

(* Malformed input must always surface as a [Failure] whose message names
   the parser ("Dag_io. ..."), never as an escaping [Invalid_argument] or
   [Dag.Cycle] from the constructor. *)
let expect_dag_io_failure name text =
  match Hyperdag.Dag_io.of_string text with
  | _ -> Alcotest.failf "%s: parse unexpectedly succeeded" name
  | exception Failure msg ->
      Alcotest.(check bool)
        (name ^ ": error names the parser")
        true
        (String.length msg >= 7 && String.sub msg 0 7 = "Dag_io.")
  | exception e ->
      Alcotest.failf "%s: expected Failure, got %s" name (Printexc.to_string e)

let test_dag_io_malformed () =
  expect_dag_io_failure "empty" "";
  expect_dag_io_failure "truncated header" "3\n";
  expect_dag_io_failure "negative header" "-2 1\n0 1\n";
  expect_dag_io_failure "non-numeric edge" "2 1\n0 x\n";
  expect_dag_io_failure "truncated edge list" "3 2\n0 1\n";
  expect_dag_io_failure "trailing garbage" "2 1\n0 1\n1 0 extra\n";
  expect_dag_io_failure "endpoint out of range" "2 1\n0 5\n";
  expect_dag_io_failure "negative endpoint" "2 1\n-1 0\n";
  expect_dag_io_failure "self-loop" "2 1\n1 1\n";
  expect_dag_io_failure "cycle" "2 2\n0 1\n1 0\n"

(* The header's n is checked against the node limit before the DAG is
   built: this header used to run the reader out of memory. *)
let test_dag_io_node_limit () =
  Alcotest.check_raises "n = 10^12"
    (Failure
       (Printf.sprintf "Dag_io.of_string: %d nodes exceed the limit of %d"
          1_000_000_000_000 Hypergraph.max_nodes))
    (fun () -> ignore (Hyperdag.Dag_io.of_string "1000000000000 0\n"))

let test_dag_io_roundtrip () =
  let rng = Support.Rng.create 17 in
  for _ = 1 to 20 do
    let n = 2 + Support.Rng.int rng 10 in
    let edges = ref [] in
    for v = 1 to n - 1 do
      let d = Support.Rng.int rng (min 3 v) in
      Array.iter
        (fun u -> edges := (u, v) :: !edges)
        (Support.Rng.sample_distinct rng ~n:v ~k:d)
    done;
    let dag = D.of_edges ~n !edges in
    let dag' = Hyperdag.Dag_io.of_string (Hyperdag.Dag_io.to_string dag) in
    Alcotest.(check int) "n" (D.num_nodes dag) (D.num_nodes dag');
    let norm d = List.sort Support.Order.int_pair (D.edges d) in
    Alcotest.(check bool) "same edges" true (norm dag = norm dag')
  done

let test_generator_assignment_validation () =
  let hg = H.of_edges ~n:3 [| [| 0; 1 |]; [| 1; 2 |] |] in
  Alcotest.(check bool) "valid witness" true
    (HD.valid_generator_assignment hg [| 0; 1 |]);
  Alcotest.(check bool) "non-member generator" false
    (HD.valid_generator_assignment hg [| 2; 1 |]);
  Alcotest.(check bool) "duplicate generator" false
    (HD.valid_generator_assignment hg [| 1; 1 |]);
  (* Cyclic: 0 generates {0,1} (edge 0->1), 1... choose gens so that the
     digraph has a cycle: gens (1, 2) gives edges 1->0 and 2->1: acyclic.
     gens (1, 0)? 0 is not in edge 1.  Use a 4-node example instead. *)
  let hg2 = H.of_edges ~n:2 [| [| 0; 1 |] |] in
  Alcotest.(check bool) "wrong length" false
    (HD.valid_generator_assignment hg2 [||])

(* i-th smallest degree in a hyperDAG is at most i (Appendix B). *)
let qcheck_hyperdag_degree_sequence =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 12 in
      let* edges =
        list_repeat (n - 1)
          (let* src = int_range 0 (n - 2) in
           let* tgt = int_range (src + 1) (n - 1) in
           return (src, tgt))
      in
      return (D.of_edges ~n (List.sort_uniq Support.Order.int_pair edges)))
  in
  QCheck.Test.make ~name:"hyperDAG degree sequence is dominated by 1..n"
    ~count:100
    (QCheck.make gen)
    (fun dag ->
      let hg, _ = HD.of_dag dag in
      let ds = H.degree_sequence hg in
      Array.for_all Fun.id (Array.mapi (fun i d -> d <= i + 1) ds))

(* Layerings ----------------------------------------------------------------- *)

let test_earliest_latest () =
  (* Figure 5-style: diamond plus a floating node reachable from 0 only. *)
  let d = D.of_edges ~n:5 [ (0, 1); (0, 2); (1, 3); (2, 3); (0, 4) ] in
  let e = HD.Layering.earliest d and l = HD.Layering.latest d in
  Alcotest.(check int) "layers" 3 (HD.Layering.num_layers d);
  Alcotest.(check (array int)) "earliest" [| 0; 1; 1; 2; 1 |] e;
  Alcotest.(check (array int)) "latest" [| 0; 1; 1; 2; 2 |] l;
  Alcotest.(check bool) "earliest valid" true (HD.Layering.is_valid d e);
  Alcotest.(check bool) "latest valid" true (HD.Layering.is_valid d l);
  Alcotest.(check bool) "not rigid" false (HD.Layering.is_rigid d);
  (* Node 4 is flexible between layers 1 and 2: two layerings. *)
  Alcotest.(check int) "count layerings" 2 (HD.Layering.count_layerings d)

let test_groups () =
  let d = diamond () in
  let g = HD.Layering.earliest_groups d in
  Alcotest.(check int) "three layers" 3 (Array.length g);
  Alcotest.(check (array int)) "layer 0" [| 0 |] g.(0);
  Alcotest.(check (array int)) "layer 1" [| 1; 2 |] g.(1);
  Alcotest.(check (array int)) "layer 2" [| 3 |] g.(2)

let test_invalid_layering () =
  let d = diamond () in
  Alcotest.(check bool) "edge within a layer" false
    (HD.Layering.is_valid d [| 0; 1; 1; 1 |]);
  Alcotest.(check bool) "layer out of range" false
    (HD.Layering.is_valid d [| 0; 1; 1; 5 |])

let test_iter_layerings_all_valid () =
  (* Path 0-1-2 fixes three layers; the chain 3-4 floats. *)
  let d = D.of_edges ~n:5 [ (0, 1); (1, 2); (0, 3); (3, 4) ] in
  let count = ref 0 in
  HD.Layering.iter_layerings d (fun layer ->
      incr count;
      Alcotest.(check bool) "enumerated layering valid" true
        (HD.Layering.is_valid d layer));
  Alcotest.(check bool) "several layerings" true (!count >= 1)

let suite =
  [
    Alcotest.test_case "dag basics" `Quick test_dag_basics;
    Alcotest.test_case "dag validation" `Quick test_dag_validation;
    Alcotest.test_case "topological order" `Quick test_topological_order;
    Alcotest.test_case "serial concatenation" `Quick test_concat_serial;
    Alcotest.test_case "reverse" `Quick test_reverse;
    Alcotest.test_case "of_dag diamond" `Quick test_of_dag_diamond;
    Alcotest.test_case "of_dag degree bound" `Quick test_of_dag_indegree_bound;
    Alcotest.test_case "triangle is not a hyperDAG" `Quick
      test_triangle_not_hyperdag;
    Alcotest.test_case "too many edges" `Quick test_too_many_edges_not_hyperdag;
    Alcotest.test_case "recognize two edges" `Quick test_recognize_two_edges;
    Alcotest.test_case "densest hyperDAG recognized" `Quick
      test_densest_hyperdag_recognized;
    Alcotest.test_case "roundtrip dag <-> hyperDAG" `Quick
      test_roundtrip_dag_hyperdag;
    Alcotest.test_case "DAG IO malformed input" `Quick test_dag_io_malformed;
    Alcotest.test_case "DAG IO node limit" `Quick test_dag_io_node_limit;
    Alcotest.test_case "DAG IO roundtrip" `Quick test_dag_io_roundtrip;
    Alcotest.test_case "generator assignment validation" `Quick
      test_generator_assignment_validation;
    QCheck_alcotest.to_alcotest qcheck_hyperdag_degree_sequence;
    Alcotest.test_case "earliest/latest layering" `Quick test_earliest_latest;
    Alcotest.test_case "layer groups" `Quick test_groups;
    Alcotest.test_case "invalid layerings" `Quick test_invalid_layering;
    Alcotest.test_case "iter_layerings valid" `Quick
      test_iter_layerings_all_valid;
  ]
