(* E2 — The main reduction roundtrip (Theorem 4.1 / Lemma C.1, Figure 3):
   on small SpES instances, the exact partition optimum of the reduction
   equals the SpES optimum, and heuristic partitions map back to valid
   SpES solutions. *)

let instances () =
  [
    ("triangle, p=1", Npc.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ], 1);
    ("path-4, p=2", Npc.Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ], 2);
    ( "square+diag, p=2",
      Npc.Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3); (0, 2) ],
      2 );
  ]

let run () =
  let rows =
    List.map
      (fun (name, g, p) ->
        let red =
          Reductions.Spes_to_partition.build ~eps:0.0
            (Npc.Graph.to_hypergraph g) ~k:2 ~p
        in
        let h = Reductions.Spes_to_partition.hypergraph red in
        let spes_opt =
          match Npc.Spes.optimum g ~p with Some v -> v | None -> -1 in
        (* Find the p-edge selection realizing the optimum and embed it. *)
        let sol =
          match Npc.Spes.exact g ~p with Some s -> s | None -> assert false
        in
        let chosen =
          let induced = ref [] in
          Array.iteri
            (fun e (u, v) ->
              if
                Array.mem u sol.Npc.Spes.nodes
                && Array.mem v sol.Npc.Spes.nodes
                && List.length !induced < p
              then induced := e :: !induced)
            (Npc.Graph.edges g);
          Array.of_list !induced
        in
        let part = Reductions.Spes_to_partition.embed red chosen in
        let embed_cost = Partition.connectivity_cost h part in
        let at_opt = Solvers.Exact.decision h ~k:2 ~cost_limit:spes_opt in
        let below_opt =
          Solvers.Exact.decision h ~k:2 ~cost_limit:(spes_opt - 1)
        in
        (* Heuristic roundtrip. *)
        let heur =
          Solvers.Multilevel.partition
            ~config:{ Solvers.Multilevel.default_config with eps = 0.0 }
            (Support.Rng.create 42) h ~k:2
        in
        let mapped = Reductions.Spes_to_partition.extract red heur in
        let heur_obj = Reductions.Spes_to_partition.union_size red mapped in
        [
          Table.Str name;
          Table.Int (Hypergraph.num_nodes h);
          Table.Int spes_opt;
          Table.Int embed_cost;
          Table.Bool at_opt;
          Table.Bool (not below_opt);
          Table.Int heur_obj;
        ])
      (instances ())
  in
  Table.print ~title:"E2: SpES <-> partitioning reduction roundtrip"
    ~anchor:"Thm 4.1 / Lemma C.1: OPT_part = OPT_SpES"
    ~columns:
      [
        "instance"; "n'"; "OPT_SpES"; "embed cost"; "part@OPT"; "!part@OPT-1";
        "heuristic->SpES";
      ]
    rows;
  Table.note
    "embed cost = OPT_SpES, the decision version agrees at OPT and refuses below it.";
  (* k = 3 (Appendix C.4): the same equality through the generalized
     construction with filler components. *)
  let g3 = Npc.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let red3 =
    Reductions.Spes_to_partition.build ~eps:0.0 (Npc.Graph.to_hypergraph g3)
      ~k:3 ~p:1
  in
  let h3 = Reductions.Spes_to_partition.hypergraph red3 in
  let part3 = Reductions.Spes_to_partition.embed red3 [| 0 |] in
  let rows_k3 =
    [
      [
        Table.Str "triangle, p=1, k=3";
        Table.Int (Hypergraph.num_nodes h3);
        Table.Int 2;
        Table.Int (Partition.connectivity_cost h3 part3);
        Table.Bool (Solvers.Exact.decision h3 ~k:3 ~cost_limit:2);
        Table.Bool (not (Solvers.Exact.decision h3 ~k:3 ~cost_limit:1));
        Table.Int (Partition.nonempty_parts h3 part3);
      ];
    ]
  in
  Table.print ~title:"E2b: the k >= 3 generalization (Appendix C.4)"
    ~anchor:"App C.4: extra filler components, same OPT equality"
    ~columns:
      [ "instance"; "n'"; "OPT_SpES"; "embed cost"; "part@OPT"; "!part@OPT-1";
        "parts used" ]
    rows_k3
