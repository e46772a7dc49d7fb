(* E7 — Recursive bisection vs direct k-way partitioning on the Lemma 7.2
   construction (Figure 8): the recursive approach, even with optimal
   steps, pays Theta(n) while a direct 4-way solution costs O(1). *)

let run () =
  let rows =
    List.map
      (fun unit_size ->
        let t = Reductions.Counterexamples.nine_blocks ~unit_size in
        let hg = t.Reductions.Counterexamples.hypergraph in
        let n = Hypergraph.num_nodes hg in
        let direct = Reductions.Counterexamples.nine_blocks_direct t in
        let direct_cost = Partition.connectivity_cost hg direct in
        let first = Reductions.Counterexamples.nine_blocks_first_bisection t in
        let first_cost = Partition.connectivity_cost hg first in
        (* After the optimal (cost-0) first split, the large side must be
           halved; by Lemma A.5 that costs at least 2 * unit_size - 1. *)
        let forced = (2 * unit_size) - 1 in
        (* What an actual recursive solver does. *)
        let topo = Hierarchy.Topology.two_level ~b1:2 ~b2:2 ~g1:2.0 in
        let recursive =
          Solvers.Recursive.hierarchical ~eps:0.05 (Support.Rng.create 7)
            topo hg
        in
        let recursive_cost = Partition.connectivity_cost hg recursive in
        let ratio = float_of_int recursive_cost /. float_of_int (max 1 direct_cost) in
        [
          Table.Int n;
          Table.Int first_cost;
          Table.Int forced;
          Table.Int recursive_cost;
          Table.Int direct_cost;
          Table.Float ratio;
        ])
      [ 3; 6; 12; 24; 48 ]
  in
  Table.print
    ~title:"E7: recursive vs direct 4-way on the nine-block construction"
    ~anchor:"Lemma 7.2 / Fig 8: recursive cost grows Theta(n), direct is O(1)"
    ~columns:
      [
        "n"; "1st split cost"; "forced 2nd-split LB"; "recursive (measured)";
        "direct (constructed)"; "ratio";
      ]
    rows;
  Table.note
    "the forced lower bound 2u-1 on the second split grows linearly in n = 12u."
