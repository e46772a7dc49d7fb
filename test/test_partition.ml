(* Tests for partitions, metrics, balance and multi-constraint
   feasibility. *)

module H = Hypergraph
module P = Partition

let path4 () =
  (* 0-1-2-3 as hyperedges of size 2 plus one big edge. *)
  H.of_edges ~n:4 [| [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 0; 1; 2; 3 |] |]

let test_create_validation () =
  Alcotest.check_raises "color out of range"
    (Invalid_argument "Part.create: color out of range") (fun () ->
      ignore (P.create ~k:2 [| 0; 2 |]))

let test_lambda_and_costs () =
  let h = path4 () in
  let p = P.create ~k:2 [| 0; 0; 1; 1 |] in
  Alcotest.(check int) "lambda uncut" 1 (P.lambda h p 0);
  Alcotest.(check int) "lambda cut" 2 (P.lambda h p 1);
  Alcotest.(check int) "lambda big edge" 2 (P.lambda h p 3);
  Alcotest.(check bool) "is_cut" true (P.is_cut h p 1);
  Alcotest.(check bool) "not cut" false (P.is_cut h p 0);
  Alcotest.(check int) "cutnet" 2 (P.cutnet_cost h p);
  Alcotest.(check int) "connectivity" 2 (P.connectivity_cost h p);
  Alcotest.(check (list int)) "cut edges" [ 1; 3 ] (P.cut_edges h p);
  let p3 = P.create ~k:3 [| 0; 1; 2; 2 |] in
  Alcotest.(check int) "lambda 3" 3 (P.lambda h p3 3);
  (* cut-net counts each cut edge once; connectivity counts lambda-1. *)
  Alcotest.(check int) "cutnet k=3" 3 (P.cutnet_cost h p3);
  Alcotest.(check int) "connectivity k=3" 4 (P.connectivity_cost h p3)

let test_metrics_coincide_for_k2 () =
  (* For k = 2 the two metrics are identical (Section 3.1). *)
  let rng = Support.Rng.create 5 in
  for _ = 1 to 50 do
    let n = 2 + Support.Rng.int rng 8 in
    let m = Support.Rng.int rng 8 in
    let edges =
      Array.init m (fun _ ->
          let size = 1 + Support.Rng.int rng (min n 4) in
          Support.Rng.sample_distinct rng ~n ~k:size)
    in
    let h = H.of_edges ~n edges in
    let p = P.random rng ~k:2 ~n in
    Alcotest.(check int) "cutnet = connectivity at k=2" (P.cutnet_cost h p)
      (P.connectivity_cost h p)
  done

let test_weighted_cost () =
  let h =
    H.of_edges ~n:3 ~edge_weights:[| 5; 2 |] [| [| 0; 1 |]; [| 1; 2 |] |]
  in
  let p = P.create ~k:2 [| 0; 1; 0 |] in
  Alcotest.(check int) "weighted cutnet" 7 (P.cutnet_cost h p);
  Alcotest.(check int) "weighted connectivity" 7 (P.connectivity_cost h p)

let test_part_weights_and_sizes () =
  let h =
    H.of_edges ~n:4 ~node_weights:[| 1; 2; 3; 4 |] [| [| 0; 1; 2; 3 |] |]
  in
  let p = P.create ~k:2 [| 0; 0; 1; 1 |] in
  Alcotest.(check (array int)) "weights" [| 3; 7 |] (P.part_weights h p);
  Alcotest.(check (array int)) "sizes" [| 2; 2 |] (P.part_sizes h p);
  Alcotest.(check int) "nonempty" 2 (P.nonempty_parts h p)

let test_capacity () =
  (* n = 10, k = 2: strict capacity for eps = 0 is 5, relaxed same. *)
  Alcotest.(check int) "eps 0 strict" 5
    (P.capacity ~eps:0.0 ~total_weight:10 ~k:2 ());
  Alcotest.(check int) "eps 0.2 strict" 6
    (P.capacity ~eps:0.2 ~total_weight:10 ~k:2 ());
  (* 11 nodes, k = 2, eps 0: strict floor 5 (infeasible), relaxed ceil 6. *)
  Alcotest.(check int) "strict floor" 5
    (P.capacity ~variant:P.Strict ~eps:0.0 ~total_weight:11 ~k:2 ());
  Alcotest.(check int) "relaxed ceil" 6
    (P.capacity ~variant:P.Relaxed ~eps:0.0 ~total_weight:11 ~k:2 ())

let test_is_balanced () =
  let h = path4 () in
  let even = P.create ~k:2 [| 0; 0; 1; 1 |] in
  let skewed = P.create ~k:2 [| 0; 0; 0; 1 |] in
  Alcotest.(check bool) "even balanced" true (P.is_balanced ~eps:0.0 h even);
  Alcotest.(check bool) "skewed unbalanced at eps 0" false
    (P.is_balanced ~eps:0.0 h skewed);
  Alcotest.(check bool) "skewed balanced at eps 0.5" true
    (P.is_balanced ~eps:0.5 h skewed);
  Alcotest.(check (float 1e-9)) "imbalance" 0.5 (P.imbalance h skewed)

let test_all_lambdas () =
  let h = path4 () in
  let p = P.create ~k:2 [| 0; 1; 0; 1 |] in
  Alcotest.(check (array int)) "lambdas" [| 2; 2; 2; 2 |] (P.all_lambdas h p)

let test_trivial_and_random () =
  let h = path4 () in
  let t = P.trivial ~k:3 ~n:4 in
  Alcotest.(check int) "trivial cost" 0 (P.connectivity_cost h t);
  let rng = Support.Rng.create 1 in
  let r = P.random rng ~k:3 ~n:4 in
  Array.iter
    (fun c -> Alcotest.(check bool) "color range" true (c >= 0 && c < 3))
    (P.assignment r)

let test_copy_independent () =
  let p = P.create ~k:2 [| 0; 1 |] in
  let q = P.copy p in
  (P.assignment q).(0) <- 1;
  Alcotest.(check int) "original untouched" 0 (P.color p 0);
  Alcotest.(check bool) "equal detects" false (P.equal p q)

(* Multi-constraint --------------------------------------------------------- *)

let test_multi_constraint_disjointness () =
  Alcotest.check_raises "overlapping subsets"
    (Invalid_argument "Multi_constraint.create: subsets not disjoint")
    (fun () -> ignore (P.Multi_constraint.create [| [| 0; 1 |]; [| 1; 2 |] |]))

let test_multi_constraint_feasibility () =
  let mc = P.Multi_constraint.create [| [| 0; 1 |]; [| 2; 3 |] |] in
  (* Both subsets balanced. *)
  let good = P.create ~k:2 [| 0; 1; 0; 1 |] in
  (* First subset monochromatic: violates eps = 0. *)
  let bad = P.create ~k:2 [| 0; 0; 1; 1 |] in
  Alcotest.(check bool) "feasible" true
    (P.Multi_constraint.feasible ~eps:0.0 mc good);
  Alcotest.(check bool) "infeasible" false
    (P.Multi_constraint.feasible ~eps:0.0 mc bad);
  (* With eps = 1 (k=2 capacity = |Vj|), anything goes. *)
  Alcotest.(check bool) "loose eps" true
    (P.Multi_constraint.feasible ~eps:1.0 mc bad)

let test_multi_constraint_lower_bounds () =
  let mc =
    P.Multi_constraint.create
      ~lower_bounds:[| [| 1; 0 |] |]
      [| [| 0; 1; 2 |] |]
  in
  let has_red = P.create ~k:2 [| 0; 1; 1 |] in
  let no_red = P.create ~k:2 [| 1; 1; 1 |] in
  Alcotest.(check bool) "lower bound met" true
    (P.Multi_constraint.feasible ~eps:1.0 mc has_red);
  Alcotest.(check bool) "lower bound violated" false
    (P.Multi_constraint.feasible ~eps:1.0 mc no_red)

let test_single_constraint_is_standard () =
  let h = path4 () in
  let mc = P.Multi_constraint.single ~n:4 in
  let rng = Support.Rng.create 2 in
  for _ = 1 to 20 do
    let p = P.random rng ~k:2 ~n:4 in
    Alcotest.(check bool) "agrees with is_balanced"
      (P.is_balanced ~eps:0.25 h p)
      (P.Multi_constraint.feasible ~eps:0.25 mc p)
  done

(* Partition vector I/O ------------------------------------------------------ *)

let test_part_io_roundtrip () =
  let rng = Support.Rng.create 6 in
  for _ = 1 to 20 do
    let n = 1 + Support.Rng.int rng 30 in
    let p = P.random rng ~k:4 ~n in
    let p' = P.Io.of_string ~n (P.Io.to_string p) in
    Alcotest.(check (array int)) "roundtrip" (P.assignment p) (P.assignment p')
  done

let test_part_io_parse () =
  let p = P.Io.of_string ~n:3 "% comment\n1\n0\n2\n" in
  Alcotest.(check int) "k inferred" 3 (P.k p);
  Alcotest.(check (array int)) "vector" [| 1; 0; 2 |] (P.assignment p);
  (try
     ignore (P.Io.of_string ~n:2 "0\n1\n0\n");
     Alcotest.fail "expected count mismatch"
   with Failure _ -> ());
  (try
     ignore (P.Io.of_string ~n:1 "-3\n");
     Alcotest.fail "expected bad entry"
   with Failure _ -> ())

(* Malformed input must always surface as a [Failure] whose message names
   the parser ("Part_io. ..."), never as an escaping [Invalid_argument]. *)
let test_part_io_malformed () =
  let expect name ~n text =
    match P.Io.of_string ~n text with
    | _ -> Alcotest.failf "%s: parse unexpectedly succeeded" name
    | exception Failure msg ->
        Alcotest.(check bool)
          (name ^ ": error names the parser")
          true
          (String.length msg >= 8 && String.sub msg 0 8 = "Part_io.")
    | exception e ->
        Alcotest.failf "%s: expected Failure, got %s" name
          (Printexc.to_string e)
  in
  expect "trailing garbage" ~n:2 "0\n1\n0\n";
  expect "truncated" ~n:3 "0\n1\n";
  expect "non-numeric entry" ~n:1 "zero\n";
  expect "negative entry" ~n:1 "-1\n";
  expect "entries for n=0" ~n:0 "0\n";
  (* The degenerate empty vector parses (k = 1, no nodes). *)
  let p = P.Io.of_string ~n:0 "% nothing\n" in
  Alcotest.(check int) "empty vector k" 1 (P.k p);
  Alcotest.(check (array int)) "empty vector" [||] (P.assignment p)

(* A part id is bounded before k = 1 + the largest id is formed: an id of
   max_int used to wrap k negative and raise Invalid_argument from
   Part.create. *)
let test_part_io_part_limit () =
  let beyond id =
    Failure
      (Printf.sprintf "Part_io.of_string: part id %d exceeds the limit of %d \
                       parts"
         id H.max_nodes)
  in
  Alcotest.check_raises "id = max_int" (beyond max_int) (fun () ->
      ignore (P.Io.of_string ~n:1 "4611686018427387903\n"));
  Alcotest.check_raises "id = the limit" (beyond H.max_nodes) (fun () ->
      ignore (P.Io.of_string ~n:1 (string_of_int H.max_nodes)));
  Alcotest.(check int) "largest id below the limit" H.max_nodes
    (P.k (P.Io.of_string ~n:1 (string_of_int (H.max_nodes - 1))))

(* Layer-wise --------------------------------------------------------------- *)

let test_layerwise_feasibility () =
  let layers = [| [| 0; 1 |]; [| 2; 3 |] |] in
  let good = P.create ~k:2 [| 0; 1; 1; 0 |] in
  let bad = P.create ~k:2 [| 0; 0; 1; 1 |] in
  Alcotest.(check bool) "layerwise good" true
    (P.Layerwise.feasible ~eps:0.0 layers good);
  Alcotest.(check bool) "layerwise bad" false
    (P.Layerwise.feasible ~eps:0.0 layers bad)

let test_layerwise_ignore_small () =
  let layers = [| [| 0 |]; [| 1; 2; 3; 4 |] |] in
  let p = P.create ~k:2 [| 0; 0; 0; 1; 1 |] in
  (* Layer of size 1 cannot be eps=0 balanced with k=2 under Strict. *)
  Alcotest.(check bool) "degenerate layer fails" false
    (P.Layerwise.feasible ~eps:0.0 layers p);
  Alcotest.(check bool) "ignored below min size" true
    (P.Layerwise.feasible_ignoring_small ~eps:0.0 ~min_size:2 layers p);
  (* Relaxed variant also admits the degenerate layer. *)
  Alcotest.(check bool) "relaxed admits" true
    (P.Layerwise.feasible ~variant:P.Relaxed ~eps:0.0 layers p)

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "lambda and costs" `Quick test_lambda_and_costs;
    Alcotest.test_case "metrics coincide for k=2" `Quick
      test_metrics_coincide_for_k2;
    Alcotest.test_case "weighted cost" `Quick test_weighted_cost;
    Alcotest.test_case "part weights and sizes" `Quick
      test_part_weights_and_sizes;
    Alcotest.test_case "capacity" `Quick test_capacity;
    Alcotest.test_case "is_balanced" `Quick test_is_balanced;
    Alcotest.test_case "all lambdas" `Quick test_all_lambdas;
    Alcotest.test_case "trivial and random" `Quick test_trivial_and_random;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "multi-constraint disjointness" `Quick
      test_multi_constraint_disjointness;
    Alcotest.test_case "multi-constraint feasibility" `Quick
      test_multi_constraint_feasibility;
    Alcotest.test_case "multi-constraint lower bounds" `Quick
      test_multi_constraint_lower_bounds;
    Alcotest.test_case "single constraint = standard" `Quick
      test_single_constraint_is_standard;
    Alcotest.test_case "partition IO roundtrip" `Quick test_part_io_roundtrip;
    Alcotest.test_case "partition IO parse" `Quick test_part_io_parse;
    Alcotest.test_case "partition IO malformed input" `Quick
      test_part_io_malformed;
    Alcotest.test_case "partition IO part limit" `Quick
      test_part_io_part_limit;
    Alcotest.test_case "layerwise feasibility" `Quick
      test_layerwise_feasibility;
    Alcotest.test_case "layerwise small layers" `Quick
      test_layerwise_ignore_small;
  ]
