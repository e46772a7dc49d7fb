(* NUMA sensitivity study: how the cost of ignoring the hierarchy grows
   with the socket-crossing penalty g1 (the Section 7 story, on a real
   workload rather than a worst-case gadget).

   For an FFT hyperDAG on a 2 x 4 machine we compare three pipelines:
   - flat:      multilevel k-way + *worst* leaf placement (hierarchy-blind)
   - two-step:  multilevel k-way + optimal leaf placement (Section 7.2)
   - recursive: split along the hierarchy (Section 7.1)

   Run with:  dune exec examples/numa_sweep.exe *)

let () =
  let dag = Workloads.Dag_gen.fft ~stages:5 in
  let hg = Hyperdag.hypergraph_of_dag dag in
  Printf.printf "workload: FFT hyperDAG, n = %d, m = %d; machine: 2 sockets x 4 cores\n\n"
    (Hypergraph.num_nodes hg) (Hypergraph.num_edges hg);
  Printf.printf "%6s %12s %12s %12s %12s %14s\n" "g1" "flat-worst" "two-step"
    "+hier-refine" "recursive" "2step saving";
  List.iter
    (fun g1 ->
      let topo = Hierarchy.Topology.two_level ~b1:2 ~b2:4 ~g1 in
      let rng = Support.Rng.create 7 in
      let flat =
        Solvers.Multilevel.partition
          ~config:{ Solvers.Multilevel.default_config with eps = 0.1 }
          rng hg ~k:8
      in
      let two = Hierarchy.Two_step.of_flat topo hg flat in
      (* The worst placement of the same flat parts. *)
      let worst = ref 0.0 in
      let perm = Array.init 8 Fun.id in
      (* Scan a few hundred random permutations for a bad one. *)
      for _ = 1 to 500 do
        Support.Rng.shuffle_in_place rng perm;
        let c = Hierarchy.Hier_cost.cost_with_assignment topo hg flat perm in
        if c > !worst then worst := c
      done;
      let recursive = Solvers.Recursive.hierarchical ~eps:0.1 rng topo hg in
      let rec_cost = Hierarchy.Hier_cost.cost topo hg recursive in
      let refined = Partition.copy two.Hierarchy.Two_step.hierarchical in
      let refined_cost =
        Hierarchy.Hier_refine.refine
          ~config:{ Hierarchy.Hier_refine.default_config with eps = 0.1 }
          topo hg refined
      in
      Printf.printf "%6.1f %12.1f %12.1f %12.1f %12.1f %13.1f%%\n" g1 !worst
        two.Hierarchy.Two_step.hier_cost refined_cost rec_cost
        (100.0
        *. (!worst -. two.Hierarchy.Two_step.hier_cost)
        /. !worst))
    [ 1.0; 2.0; 4.0; 8.0; 16.0 ];
  print_newline ();
  print_endline
    "(Lemma 7.3 caps the spread at a factor g1; the optimal placement step";
  print_endline
    " of the two-step method recovers most of it on this workload.)"
