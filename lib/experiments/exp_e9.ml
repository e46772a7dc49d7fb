(* E9 — The hierarchy assignment problem (Theorem 7.5, Appendix H):
   b2 = 2 is solved exactly in polynomial time by maximum-weight matching
   (agreeing with the exact search), b2 = 3 is NP-hard (3DM reduction), and
   the search-space count f(k) grows steeply. *)

let run () =
  let rng = Support.Rng.create 31 in
  let rows =
    List.map
      (fun k ->
        let n = 3 * k in
        let hg =
          Workloads.Rand_hg.uniform rng ~n ~m:(4 * k) ~min_size:2 ~max_size:4
        in
        let part = Partition.create ~k (Array.init n (fun v -> v mod k)) in
        let topo = Hierarchy.Topology.two_level ~b1:(k / 2) ~b2:2 ~g1:4.0 in
        let ex = Hierarchy.Assignment.exact topo hg part in
        let mt, mt_secs =
          Obs.Span.timed "exp.e9.matching_b2_2" (fun () ->
              Hierarchy.Assignment.matching_b2_2 topo hg part)
        in
        let ls = Hierarchy.Assignment.local_search topo hg part in
        [
          Table.Int k;
          Table.Float (Hierarchy.Assignment.count_assignments topo);
          Table.Float ex.Hierarchy.Assignment.cost;
          Table.Float mt.Hierarchy.Assignment.cost;
          Table.Bool
            (abs_float (ex.Hierarchy.Assignment.cost -. mt.Hierarchy.Assignment.cost)
            < 1e-6);
          Table.Float ls.Hierarchy.Assignment.cost;
          Table.Float (mt_secs *. 1000.0);
        ])
      [ 4; 6; 8; 10; 12 ]
  in
  Table.print ~title:"E9a: b2 = 2 assignment via matching = exact optimum"
    ~anchor:"Lemma H.1: maximum-weight matching solves b2 = 2 exactly"
    ~columns:
      [ "k"; "f(k)"; "exact cost"; "matching cost"; "agree"; "local search";
        "matching ms" ]
    rows;
  (* b2 = 3 via 3DM. *)
  let rows_3dm =
    List.map
      (fun (name, inst) ->
        let red = Reductions.Assignment_from_three_dm.build inst in
        let has = Npc.Three_dm.has_perfect_matching inst in
        let via =
          Reductions.Assignment_from_three_dm.matching_exists_via_assignment red
        in
        [
          Table.Str name;
          Table.Int (Npc.Three_dm.size inst);
          Table.Int
            (Hypergraph.num_edges
               (Reductions.Assignment_from_three_dm.hypergraph red));
          Table.Bool has;
          Table.Bool via;
          Table.Bool (has = via);
        ])
      [
        ( "yes q=2",
          Npc.Three_dm.create ~q:2 [ (0, 0, 0); (1, 1, 1); (0, 1, 1); (1, 0, 0) ]
        );
        ("no  q=2", Npc.Three_dm.create ~q:2 [ (0, 0, 0); (1, 1, 0) ]);
        ("yes q=3", Npc.Three_dm.random_yes (Support.Rng.create 9) ~q:3 ~extra:5);
      ]
  in
  Table.print ~title:"E9b: b2 = 3 assignment decides 3DM"
    ~anchor:"Lemma H.2 / Thm 7.5: NP-hard already at b2 = 3"
    ~columns:[ "instance"; "q"; "edges"; "3DM?"; "via assignment"; "agree" ]
    rows_3dm
