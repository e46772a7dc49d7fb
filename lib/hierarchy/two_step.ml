(* The two-step method of Section 7.2: (i) find a regular k-way
   partitioning ignoring the hierarchy, (ii) assign the k parts to the k
   leaf positions optimally.  Lemma 7.3 shows this is a g_1-approximation;
   Theorem 7.4 shows the factor (b_1 - 1)/b_1 * g_1 can be attained
   (experiment E8). *)

type result = {
  flat : Partition.t; (* the step-(i) partition, colors 0..k-1 *)
  leaf_of_part : int array;
  hierarchical : Partition.t; (* colors are leaf indices *)
  flat_cost : int; (* connectivity cost of step (i) *)
  hier_cost : float;
}

let assign_optimally topo hg flat =
  let k = Partition.k flat in
  if k <= 8 then Assignment.exact topo hg flat
  else if Topology.depth topo = 2 && (Topology.branching topo).(1) = 2 then
    Assignment.matching_b2_2 topo hg flat
  else if Topology.depth topo = 2 && k <= 16 then
    Assignment.exact_two_level topo hg flat
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
