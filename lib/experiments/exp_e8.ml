(* E8 — The two-step method on the star construction (Theorem 7.4 /
   Figure 9): with both steps optimal, the hierarchy-agnostic route is a
   factor approaching (b1 - 1)/b1 * g1 worse than the hierarchical
   optimum. *)

let topology_for k g1 =
  (* Even k: (k/2, 2); the bottom pairing is what the construction
     exploits. *)
  Hierarchy.Topology.two_level ~b1:(k / 2) ~b2:2 ~g1

let run () =
  let m = 40 and unit_size = 2 in
  let row ~k ~g1 =
    let t = Reductions.Counterexamples.star ~k ~m ~unit_size in
    let hg = t.Reductions.Counterexamples.hypergraph in
    let topo = topology_for k g1 in
    let flat_opt = Reductions.Counterexamples.star_flat_optimum t in
    let hier_opt = Reductions.Counterexamples.star_hier_optimum t in
    let two = Hierarchy.Two_step.of_flat topo hg flat_opt in
    let best = Hierarchy.Two_step.of_flat topo hg hier_opt in
    let ratio = two.Hierarchy.Two_step.hier_cost /. best.Hierarchy.Two_step.hier_cost in
    let b1 = k / 2 in
    let bound = float_of_int (b1 - 1) /. float_of_int b1 *. g1 in
    [
      Table.Int k;
      Table.Float g1;
      Table.Int two.Hierarchy.Two_step.flat_cost;
      Table.Int best.Hierarchy.Two_step.flat_cost;
      Table.Float two.Hierarchy.Two_step.hier_cost;
      Table.Float best.Hierarchy.Two_step.hier_cost;
      Table.Float ratio;
      Table.Float bound;
      Table.Float g1;
    ]
  in
  let rows_g = List.map (fun g1 -> row ~k:4 ~g1) [ 2.0; 4.0; 8.0; 16.0 ] in
  Table.print ~title:"E8a: two-step vs hierarchical optimum, k = 4, sweep g1"
    ~anchor:"Thm 7.4: ratio grows with g1, below the Lemma 7.3 cap g1"
    ~columns:
      [
        "k"; "g1"; "flat(2step)"; "flat(hier)"; "hier(2step)"; "hier(constructed)";
        "ratio"; "(b1-1)/b1*g1"; "g1 cap";
      ]
    rows_g;
  let rows_k = List.map (fun k -> row ~k ~g1:8.0) [ 4; 6; 8 ] in
  Table.print ~title:"E8b: sweep k at g1 = 8"
    ~anchor:"Thm 7.4: the attainable factor approaches g1 as b1 grows"
    ~columns:
      [
        "k"; "g1"; "flat(2step)"; "flat(hier)"; "hier(2step)"; "hier(constructed)";
        "ratio"; "(b1-1)/b1*g1"; "g1 cap";
      ]
    rows_k;
  Table.note
    "the two-step method strictly prefers the flat optimum (smaller flat cost) and pays the predicted hierarchical factor."
