(* E15 — HyperDAG NP-hardness (Lemma B.3) and the Appendix I.1 hyperDAG
   counterexamples: the Lemma B.3 derivation preserves optima while
   producing recognizable hyperDAGs, and the two-level-block versions of
   the Section 7 constructions keep their behaviour. *)

let run () =
  (* Lemma B.3 on small random hypergraphs. *)
  let rows =
    List.map
      (fun seed ->
        let r = Support.Rng.create seed in
        let hg = Workloads.Rand_hg.uniform r ~n:5 ~m:4 ~min_size:2 ~max_size:3 in
        let red = Reductions.Hyperdag_np_hard.build ~eps:0.5 hg ~k:2 in
        let derived = Reductions.Hyperdag_np_hard.hypergraph red in
        (* Forward-map the exact optimum and compare costs. *)
        let opt = Solvers.Exact.solve ~eps:0.5 hg ~k:2 in
        let preserved =
          match opt with
          | None -> Table.Str "n/a"
          | Some { Solvers.Exact.part; cost } ->
              let ext = Reductions.Hyperdag_np_hard.extend red part in
              Table.Bool
                (Partition.connectivity_cost derived ext = cost
                && Partition.is_balanced
                     ~eps:(Reductions.Hyperdag_np_hard.eps' red)
                     derived ext)
        in
        [
          Table.Int seed;
          Table.Int (Hypergraph.num_nodes derived);
          Table.Bool (Hyperdag.is_hyperdag derived);
          Table.Float (Reductions.Hyperdag_np_hard.eps' red);
          preserved;
        ])
      [ 1; 2; 3; 4 ]
  in
  Table.print ~title:"E15a: the Lemma B.3 derivation (5-node inputs)"
    ~anchor:"Lemma B.3: hyperDAG instances, optima preserved"
    ~columns:[ "seed"; "derived n"; "hyperDAG"; "eps'"; "optimum preserved" ]
    rows;
  (* Appendix I.1: the nine-block construction as a hyperDAG. *)
  let rows_i1 =
    List.map
      (fun unit_size ->
        let t = Reductions.Counterexamples.nine_blocks_hyperdag ~unit_size in
        let hg = t.Reductions.Counterexamples.hypergraph in
        let part = Reductions.Counterexamples.nine_blocks_hyperdag_direct t in
        [
          Table.Int (Hypergraph.num_nodes hg);
          Table.Bool (Hyperdag.is_hyperdag hg);
          Table.Bool (Partition.is_balanced ~eps:0.0 hg part);
          Table.Int (Partition.connectivity_cost hg part);
          Table.Int (2 * unit_size);
        ])
      [ 2; 4; 8 ]
  in
  Table.print
    ~title:"E15b: the nine-block construction as a hyperDAG (App I.1)"
    ~anchor:"App I.1: same O(1) direct cost, Theta(n) forced second split"
    ~columns:
      [ "n"; "hyperDAG"; "direct balanced"; "direct cost";
        "2nd-split LB (b0)" ]
    rows_i1
