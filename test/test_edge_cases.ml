(* Edge-case and error-path tests across the libraries: degenerate inputs,
   alternative metrics, format corners, bound conditions. *)

module H = Hypergraph
module P = Partition

(* Hypergraph corners --------------------------------------------------------- *)

let test_empty_hypergraph () =
  let h = H.empty 5 in
  Alcotest.(check int) "no edges" 0 (H.num_edges h);
  Alcotest.(check int) "max degree 0" 0 (H.max_degree h);
  let p = P.trivial ~k:2 ~n:5 in
  Alcotest.(check int) "zero cost" 0 (P.connectivity_cost h p);
  (* Partitioning an edgeless hypergraph: any balanced split costs 0. *)
  match Solvers.Exact.solve ~variant:P.Relaxed ~eps:0.0 h ~k:2 with
  | Some { Solvers.Exact.cost; _ } -> Alcotest.(check int) "optimum 0" 0 cost
  | None -> Alcotest.fail "feasible"

let test_zero_node_hypergraph () =
  let h = H.empty 0 in
  Alcotest.(check int) "n = 0" 0 (H.num_nodes h);
  let p = Solvers.Multilevel.partition (Support.Rng.create 1) h ~k:3 in
  Alcotest.(check int) "empty partition" 0 (Array.length (P.assignment p))

let test_singleton_edges () =
  (* Size-1 hyperedges are never cut under either metric. *)
  let h = H.of_edges ~n:3 [| [| 0 |]; [| 1; 2 |] |] in
  let p = P.create ~k:2 [| 0; 0; 1 |] in
  Alcotest.(check int) "cutnet counts only the real cut" 1 (P.cutnet_cost h p);
  Alcotest.(check int) "connectivity too" 1 (P.connectivity_cost h p)

let test_grid_column_outsiders () =
  (* Outsiders beyond [side] extend column hyperedges (the Appendix C.2
     padding device). *)
  let b = H.Builder.create () in
  let g = H.Gadgets.grid ~outsiders:5 b ~side:3 in
  let h = H.Builder.build b in
  Alcotest.(check int) "total outsiders" 5
    (Array.length g.H.Gadgets.outsiders);
  (* Rows 0-2 extended, columns 0-1 extended. *)
  Alcotest.(check int) "row 0 size" 4 (H.edge_size h g.H.Gadgets.row_edges.(0));
  Alcotest.(check int) "col 0 size" 4 (H.edge_size h g.H.Gadgets.col_edges.(0));
  Alcotest.(check int) "col 2 size" 3 (H.edge_size h g.H.Gadgets.col_edges.(2));
  Alcotest.check_raises "too many outsiders"
    (Invalid_argument "Gadgets.grid: more outsiders than rows and columns")
    (fun () ->
      let b = H.Builder.create () in
      ignore (H.Gadgets.grid ~outsiders:7 b ~side:3))

(* hMETIS format corners -------------------------------------------------------- *)

let test_hmetis_fmt_variants () =
  (* fmt = 1: edge weights only. *)
  let h1 = H.Hmetis.of_string "2 3 1\n5 1 2\n7 2 3\n" in
  Alcotest.(check int) "edge weight parsed" 5 (H.edge_weight h1 0);
  Alcotest.(check int) "node weight default" 1 (H.node_weight h1 0);
  (* fmt = 10: node weights only. *)
  let h10 = H.Hmetis.of_string "1 2 10\n1 2\n3\n4\n" in
  Alcotest.(check int) "node weight parsed" 4 (H.node_weight h10 1);
  Alcotest.(check int) "edge weight default" 1 (H.edge_weight h10 0);
  (* Unsupported fmt rejected. *)
  (try
     ignore (H.Hmetis.of_string "1 2 7\n1 2\n");
     Alcotest.fail "expected unsupported fmt"
   with Failure _ -> ())

(* Topology corners -------------------------------------------------------------- *)

let test_topology_ancestors () =
  let t = Hierarchy.Topology.create ~branching:[| 2; 3 |] ~costs:[| 4.0; 1.0 |] in
  Alcotest.(check int) "k = 6" 6 (Hierarchy.Topology.num_leaves t);
  (* Leaves 0-2 under child 0; 3-5 under child 1. *)
  Alcotest.(check int) "ancestor level 1" 0
    (Hierarchy.Topology.ancestor t 2 ~level:1);
  Alcotest.(check int) "ancestor level 1 (right)" 1
    (Hierarchy.Topology.ancestor t 3 ~level:1);
  Alcotest.(check int) "lca within" 2 (Hierarchy.Topology.lca_level t 3 5);
  Alcotest.(check int) "lca across" 1 (Hierarchy.Topology.lca_level t 2 3);
  Alcotest.check_raises "equal leaves"
    (Invalid_argument "Topology.lca_level: equal leaves") (fun () ->
      ignore (Hierarchy.Topology.lca_level t 1 1))

let test_steiner_validation () =
  Alcotest.check_raises "non-square"
    (Invalid_argument "Steiner.validate: non-square matrix") (fun () ->
      ignore (Hierarchy.Steiner.exact [| [| 0.0; 1.0 |] |] [| 0 |]));
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Steiner.validate: asymmetric matrix") (fun () ->
      ignore
        (Hierarchy.Steiner.exact
           [| [| 0.0; 1.0 |]; [| 2.0; 0.0 |] |]
           [| 0; 1 |]))

(* Cut-net metric through the solvers --------------------------------------------- *)

let test_fm_cutnet_metric () =
  let rng = Support.Rng.create 17 in
  for _ = 1 to 10 do
    let hg = Workloads.Rand_hg.uniform rng ~n:16 ~m:20 ~min_size:2 ~max_size:5 in
    let part = Solvers.Initial.random_balanced ~eps:0.2 rng hg ~k:3 in
    let before = P.cutnet_cost hg part in
    let after =
      Solvers.Refine.refine
        ~config:{ Solvers.Refine.eps = 0.2; metric = P.Cut_net }
        hg part
    in
    Alcotest.(check int) "returned cutnet cost" (P.cutnet_cost hg part) after;
    Alcotest.(check bool) "cutnet never worse" true (after <= before)
  done

let test_xp_cutnet () =
  let h = H.of_edges ~n:4 [| [| 0; 1; 2 |]; [| 1; 2; 3 |] |] in
  (* eps 0, k 2: any bisection cuts both size-3 edges: cutnet optimum 2. *)
  (match Solvers.Xp.optimum ~metric:P.Cut_net ~eps:0.0 h ~k:2 ~limit:3 with
  | Some (l, part) ->
      Alcotest.(check int) "cutnet optimum" 2 l;
      Alcotest.(check int) "witness cutnet cost" 2 (P.cutnet_cost h part)
  | None -> Alcotest.fail "solution exists");
  match Solvers.Exact.optimum ~metric:P.Cut_net ~eps:0.0 h ~k:2 with
  | Some v -> Alcotest.(check int) "exact agrees" 2 v
  | None -> Alcotest.fail "exact feasible"

(* Schedule corners ----------------------------------------------------------------- *)

let test_schedule_single_node () =
  let dag = Hyperdag.Dag.of_edges ~n:1 [] in
  Alcotest.(check int) "mu of single node" 1
    (Scheduling.Mu.exact_makespan dag ~k:4);
  Alcotest.(check int) "CG of single node" 1
    (Scheduling.Coffman_graham.two_processor_makespan dag)

let test_mu_too_large () =
  let dag = Workloads.Dag_gen.independent 30 in
  (try
     ignore (Scheduling.Mu.exact_makespan dag ~k:2);
     Alcotest.fail "expected Too_large"
   with Scheduling.Mu.Too_large -> ());
  match Scheduling.Mu.makespan_general dag ~k:3 with
  | Scheduling.Mu.Exact m ->
      (* Independent tasks are an in-forest: Hu applies at any size. *)
      Alcotest.(check int) "forest route" 10 m
  | Scheduling.Mu.Bounds _ -> Alcotest.fail "forest should be exact"

(* Eps boundary ----------------------------------------------------------------------- *)

let test_eps_boundaries () =
  (* Lemma A.4 boundary: eps just below 1/(k-1) forces all parts. *)
  let h = H.empty 12 in
  (match Solvers.Exact.solve ~eps:0.3 h ~k:4 with
  | Some { Solvers.Exact.part; _ } ->
      Alcotest.(check bool) "A.4: <= cap per part" true
        (P.is_balanced ~eps:0.3 h part)
  | None -> Alcotest.fail "feasible");
  (* Negative eps rejected. *)
  Alcotest.check_raises "negative eps"
    (Invalid_argument "Part.capacity: negative eps") (fun () ->
      ignore (P.capacity ~eps:(-0.1) ~total_weight:10 ~k:2 ()))

(* Main reduction input checks ------------------------------------------------- *)

module Red = Reductions.Spes_to_partition

let path3 () = Npc.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ]

let rejects name msg f =
  Alcotest.check_raises name (Invalid_argument ("Spes_to_partition." ^ msg))
    (fun () -> ignore (f ()))

let test_reduction_bad_p () =
  let src = Npc.Graph.to_hypergraph (path3 ()) in
  List.iter
    (fun p ->
      rejects "block p" "build: bad p" (fun () -> Red.build src ~k:2 ~p);
      rejects "grid p" "build_delta2: bad p" (fun () ->
          Red.build_delta2 (path3 ()) ~p))
    [ 0; 3 ]

let test_reduction_k_below_2 () =
  let src = Npc.Graph.to_hypergraph (path3 ()) in
  rejects "k = 1" "build: k < 2" (fun () -> Red.build src ~k:1 ~p:1)

let test_reduction_no_filler () =
  (* k0 = ceil(3 / 1.5) = 2: no filler color, so k = 2 is the build. *)
  let src = Npc.Graph.to_hypergraph (path3 ()) in
  rejects "k = 3, eps = 0.5"
    "build: with 2(1+eps) >= k the k = 2 construction applies" (fun () ->
      Red.build ~eps:0.5 src ~k:3 ~p:1)

(* Command-line arguments are inputs too ------------------------------------- *)

(* Runs the CLI built beside this test binary: exit code, stdout, stderr. *)
let run_cli args =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name "bin/hypartition_cli.exe")
  in
  let out = Filename.temp_file "cli" ".out" in
  let err = Filename.temp_file "cli" ".err" in
  let code =
    Sys.command
      (String.concat " " (List.map Filename.quote (exe :: args))
      ^ " >" ^ Filename.quote out ^ " 2>" ^ Filename.quote err)
  in
  let read file =
    let text = In_channel.with_open_text file In_channel.input_all in
    Sys.remove file;
    text
  in
  let stdout = read out in
  (code, stdout, read err)

let small_random () = Repo_file.path "examples/instances/small_random.hgr"

let rejects_argument args message () =
  let code, _, err = run_cli args in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check string) "message" ("error: " ^ message ^ "\n") err

let test_partition_k_zero () =
  rejects_argument
    [ "partition"; small_random (); "-k"; "0" ]
    "k must be >= 1 (got 0)" ()

(* small_random has 24 nodes.  A k above that exits at once, however
   large: before the bound, 10^8 parts ran BFS growth until memory ran
   out. *)
let test_partition_k_above_n () =
  rejects_argument
    [ "partition"; small_random (); "-k"; "25" ]
    "k must be <= 24 (got 25)" ();
  let start = Unix.gettimeofday () in
  rejects_argument
    [ "partition"; small_random (); "-k"; "100000000" ]
    "k must be <= 24 (got 100000000)" ();
  Alcotest.(check bool) "rejected in under a second" true
    (Unix.gettimeofday () -. start < 1.0)

let test_partition_k_at_n () =
  let code, out, _ = run_cli [ "partition"; small_random (); "-k"; "24" ] in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "24 parts" true
    (String.starts_with ~prefix:"k            : 24\n" out)

let test_hierarchical_k_above_n () =
  rejects_argument
    [ "hierarchical"; small_random (); "--branching"; "5,5"; "--costs"; "2,1" ]
    "k must be <= 24 (got 25)" ()

(* One domain per portfolio candidate at most, so a thread count above the
   runtime's domain limit (128) spawns 12 domains and writes the
   default's partition. *)
let test_partition_threads_200 () =
  let write threads =
    let out = Filename.temp_file "parts" ".txt" in
    let code, _, err =
      run_cli
        ([ "partition"; small_random (); "-k"; "4"; "--eps"; "0.1"; "-o"; out ]
        @ threads)
    in
    Alcotest.(check (pair int string)) "exit code and stderr" (0, "")
      (code, err);
    let parts = In_channel.with_open_text out In_channel.input_all in
    Sys.remove out;
    parts
  in
  Alcotest.(check string) "the default's parts" (write [])
    (write [ "--threads"; "200" ])

let test_partition_negative_eps () =
  rejects_argument
    [ "partition"; small_random (); "--eps=-0.5" ]
    "eps must be >= 0 (got -0.5)" ()

let test_partition_nan_eps () =
  rejects_argument
    [ "partition"; small_random (); "--eps=nan" ]
    "eps must be >= 0 (got nan)" ()

let test_hierarchical_negative_eps () =
  rejects_argument
    [ "hierarchical"; small_random (); "--eps=-0.5" ]
    "eps must be >= 0 (got -0.5)" ()

let test_hierarchical_nan_eps () =
  rejects_argument
    [ "hierarchical"; small_random (); "--eps=nan" ]
    "eps must be >= 0 (got nan)" ()

let test_partition_infinite_eps () =
  (* The capacity clamps to W, so an infinite eps refines as eps = k - 1
     does instead of leaving the start unrefined. *)
  let partition eps =
    run_cli [ "partition"; small_random (); "-k"; "4"; "--eps=" ^ eps ]
  in
  let code, out, _ = partition "inf" in
  let _, at_k_minus_1, _ = partition "3" in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "as at eps = k - 1" at_k_minus_1 out;
  Alcotest.(check int) "capacity clamps to W" 10
    (P.capacity ~eps:infinity ~total_weight:10 ~k:4 ());
  Alcotest.check_raises "NaN capacity" (Invalid_argument "Part.capacity: eps is NaN")
    (fun () -> ignore (P.capacity ~eps:nan ~total_weight:10 ~k:2 ()))

(* The audit clamps its capacity to W as Part.capacity does, so an
   infinite or huge eps accepts a balanced partition; and a job at
   eps = inf, whose record writes eps as null, comes back from the
   cache. *)
let test_audit_infinite_eps () =
  let parts = Filename.temp_file "halves" ".parts" in
  Out_channel.with_open_text parts (fun oc ->
      for v = 0 to 23 do
        output_string oc (if v < 12 then "0\n" else "1\n")
      done);
  List.iter
    (fun eps ->
      let code, _, _ = run_cli [ "check"; small_random (); parts; "--eps"; eps ] in
      Alcotest.(check int) ("check --eps " ^ eps) 0 code)
    [ "inf"; "1e300" ];
  Sys.remove parts;
  let cache = Filename.temp_file "cache" "" in
  Sys.remove cache;
  let batch () =
    run_cli [ "batch"; "--eps"; "inf"; "--cache-dir"; cache; small_random () ]
  in
  let code, _, _ = batch () in
  Alcotest.(check int) "first pass ok" 0 code;
  let code, out, _ = batch () in
  Alcotest.(check int) "second pass ok" 0 code;
  Alcotest.(check bool) "second pass is one hit, none corrupt" true
    (List.mem "cache : 1 hits, 0 misses, 0 stores, 0 corrupt"
       (String.split_on_char '\n' out))

let test_generate_n_zero () =
  let out = Filename.concat (Filename.get_temp_dir_name ()) "never-written.hgr" in
  rejects_argument
    [ "generate"; "random"; "-n"; "0"; "-o"; out ]
    (Printf.sprintf "-n must be in 1..%d (got 0)" H.max_nodes)
    ();
  Alcotest.(check bool) "nothing written" false (Sys.file_exists out)

let suite =
  [
    Alcotest.test_case "empty hypergraph" `Quick test_empty_hypergraph;
    Alcotest.test_case "zero-node hypergraph" `Quick test_zero_node_hypergraph;
    Alcotest.test_case "singleton edges" `Quick test_singleton_edges;
    Alcotest.test_case "grid column outsiders" `Quick
      test_grid_column_outsiders;
    Alcotest.test_case "hMETIS fmt variants" `Quick test_hmetis_fmt_variants;
    Alcotest.test_case "topology ancestors" `Quick test_topology_ancestors;
    Alcotest.test_case "steiner validation" `Quick test_steiner_validation;
    Alcotest.test_case "FM with cut-net metric" `Quick test_fm_cutnet_metric;
    Alcotest.test_case "XP with cut-net metric" `Quick test_xp_cutnet;
    Alcotest.test_case "single-node schedule" `Quick test_schedule_single_node;
    Alcotest.test_case "mu size guard" `Quick test_mu_too_large;
    Alcotest.test_case "eps boundaries" `Quick test_eps_boundaries;
    Alcotest.test_case "reduction rejects p outside [1, |E|]" `Quick
      test_reduction_bad_p;
    Alcotest.test_case "reduction rejects k < 2" `Quick
      test_reduction_k_below_2;
    Alcotest.test_case "reduction rejects k >= 3 without fillers" `Quick
      test_reduction_no_filler;
    Alcotest.test_case "partition rejects k = 0" `Quick test_partition_k_zero;
    Alcotest.test_case "partition rejects k > n" `Quick
      test_partition_k_above_n;
    Alcotest.test_case "partition at k = n" `Quick test_partition_k_at_n;
    Alcotest.test_case "hierarchical rejects k > n" `Quick
      test_hierarchical_k_above_n;
    Alcotest.test_case "partition --threads 200" `Quick
      test_partition_threads_200;
    Alcotest.test_case "partition rejects eps = -0.5" `Quick
      test_partition_negative_eps;
    Alcotest.test_case "partition rejects eps = nan" `Quick
      test_partition_nan_eps;
    Alcotest.test_case "hierarchical rejects eps = -0.5" `Quick
      test_hierarchical_negative_eps;
    Alcotest.test_case "hierarchical rejects eps = nan" `Quick
      test_hierarchical_nan_eps;
    Alcotest.test_case "partition at eps = inf refines" `Quick
      test_partition_infinite_eps;
    Alcotest.test_case "check and batch at eps = inf" `Quick
      test_audit_infinite_eps;
    Alcotest.test_case "generate rejects n = 0" `Quick test_generate_n_zero;
  ]
