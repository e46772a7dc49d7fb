(* The two-step method of Section 7.2: (i) find a regular k-way
   partitioning ignoring the hierarchy, (ii) assign the k parts to the k
   leaf positions, optimally where the search is affordable.  Lemma 7.3
   shows this is a g_1-approximation; Theorem 7.4 shows the factor
   (b_1 - 1)/b_1 * g_1 can be attained (experiment E8). *)

type result = {
  flat : Partition.t; (* the step-(i) partition, colors 0..k-1 *)
  leaf_of_part : int array;
  hierarchical : Partition.t; (* colors are leaf indices *)
  flat_cost : int; (* connectivity cost of step (i) *)
  hier_cost : float;
}

(* Step (ii): Lemma H.1's matching when d = 2 and b2 = 2 (exact wherever
   [Pairing] is, k <= 20); else the exact search while f(k) is within
   [exact_budget], at about 1 us per assignment; else leaf-swap local
   search.  3e6 keeps every k <= 8 tree (f <= 315) and every d = 2 tree
   with k <= 16 exact (the largest f, (4,4)'s 2,627,625, takes up to about
   2 s) and makes (2,2,3) (f = 46,200) exact; (2,2,2,2), f = 6.4e8, would
   take minutes.  An f that overflowed to infinity or NaN (k > 170) fails
   the test. *)
let exact_budget = 3e6

let assign_optimally topo hg flat =
  let b = Topology.branching topo in
  if Array.length b = 2 && b.(1) = 2 then Assignment.matching_b2_2 topo hg flat
  else if Assignment.count_assignments topo <= exact_budget then
    Assignment.exact topo hg flat
  else Assignment.local_search topo hg flat

(* Step (ii) only, for a flat partition already in hand. *)
let of_flat topo hg flat =
  let { Assignment.leaf_of_part; cost } =
    Obs.Span.with_ "hier.two_step.assign" (fun () ->
        assign_optimally topo hg flat)
  in
  let hierarchical =
    Partition.create ~k:(Topology.num_leaves topo)
      (Array.map (fun c -> leaf_of_part.(c)) (Partition.assignment flat))
  in
  {
    flat;
    leaf_of_part;
    hierarchical;
    flat_cost = Partition.connectivity_cost hg flat;
    hier_cost = cost;
  }

let run ?(eps = 0.03) rng topo hg =
  Obs.Span.with_ "hier.two_step"
    ~attrs:
      [
        ("n", Obs.Int (Hypergraph.num_nodes hg));
        ("k", Obs.Int (Topology.num_leaves topo));
      ]
  @@ fun () ->
  (* The Lemma 7.3 cost breakdown: step (i) is the hierarchy-blind flat
     partitioning, step (ii) the optimal leaf assignment. *)
  let flat =
    Obs.Span.with_ "hier.two_step.flat" (fun () ->
        Solvers.Multilevel.partition
          ~config:{ Solvers.Multilevel.default_config with eps }
          rng hg ~k:(Topology.num_leaves topo))
  in
  let r = of_flat topo hg flat in
  Obs.Span.attr "flat_cost" (Obs.Int r.flat_cost);
  Obs.Span.attr "hier_cost" (Obs.Float r.hier_cost);
  r
