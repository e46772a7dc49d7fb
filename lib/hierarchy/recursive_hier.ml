(* Recursive hierarchical partitioning (Section 7.1): split the hypergraph
   into b_1 parts, each of those into b_2 parts, and so on down the
   topology.  The natural heuristic for hierarchical cost — and a factor
   Theta(n) off the optimum in the worst case (Lemma 7.2, experiment E7). *)

type splitter = Hypergraph.t -> k:int -> eps:float -> Partition.t
(* Splits one hypergraph into k balanced parts. *)

let multilevel_splitter rng : splitter =
 fun hg ~k ~eps ->
  Solvers.Multilevel.partition
    ~config:{ Solvers.Multilevel.default_config with eps }
    rng hg ~k

let partition ?(eps = 0.0) ~splitter topo hg =
  Obs.Span.with_ "hier.recursive"
    ~attrs:
      [
        ("n", Obs.Int (Hypergraph.num_nodes hg));
        ("k", Obs.Int (Topology.num_leaves topo));
      ]
  @@ fun () ->
  let d = Topology.depth topo in
  let b = Topology.branching topo in
  let n = Hypergraph.num_nodes hg in
  let leaf = Array.make n 0 in
  (* [leaf_base]: first leaf index of the current subtree. *)
  let rec go sub old_ids ~level ~leaf_base =
    if level > d then
      Array.iter (fun v -> leaf.(v) <- leaf_base) old_ids
    else begin
      let parts = b.(level - 1) in
      let split =
        Obs.Span.with_ "hier.recursive.split"
          ~attrs:
            [
              ("level", Obs.Int level);
              ("nodes", Obs.Int (Hypergraph.num_nodes sub));
              ("parts", Obs.Int parts);
            ]
          (fun () -> splitter sub ~k:parts ~eps)
      in
      let leaves_below =
        (* Leaves of one child subtree at this level. *)
        Array.fold_left ( * ) 1 (Array.sub b level (d - level))
      in
      for j = 0 to parts - 1 do
        let ids = ref [] in
        for v = Hypergraph.num_nodes sub - 1 downto 0 do
          if Partition.color split v = j then ids := v :: !ids
        done;
        let local = Array.of_list !ids in
        if Array.length local > 0 then begin
          let side = Hypergraph.restrict sub local in
          go side
            (Array.map (fun v -> old_ids.(v)) local)
            ~level:(level + 1)
            ~leaf_base:(leaf_base + (j * leaves_below))
        end
      done
    end
  in
  go hg (Array.init n Fun.id) ~level:1 ~leaf_base:0;
  Partition.create ~k:(Topology.num_leaves topo) leaf
