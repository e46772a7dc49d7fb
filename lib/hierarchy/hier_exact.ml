(* Exact hierarchical optimum by exhaustive enumeration over leaf-colorings
   (tiny instances only), plus a smarter route: enumerate flat partitions
   with branch-and-bound on the *connectivity lower bound* and assign each
   optimally.  Used as the ground truth of experiments E7/E8. *)

type result = { part : Partition.t; cost : float }

(* Brute force over all k^n leaf-colorings; n <= ~12. *)
let brute_force ?(eps = 0.0) topo hg =
  let k = Topology.num_leaves topo in
  let n = Hypergraph.num_nodes hg in
  let best = ref None in
  Support.Util.iter_tuples ~base:k ~len:n (fun colors ->
      let part = Partition.create ~k (Array.copy colors) in
      if Partition.is_balanced ~eps hg part then begin
        let c = Hier_cost.cost topo hg part in
        match !best with
        | Some { cost; _ } when cost <= c -> ()
        | _ -> best := Some { part; cost = c }
      end);
  !best

(* Branch-and-bound for the hierarchical optimum: DFS over nodes with the
   partial hierarchical cost as an admissible lower bound (every lambda^(i)
   is monotone in the assigned pin set) and balance pruning.

   Symmetry: only the *first* node's leaf is fixed to 0 — sound because the
   automorphism group of a uniform-branching tree is transitive on leaves.
   Stronger left-to-right leaf opening would be unsound: leaves in
   different subtrees are not exchangeable (e.g. {0,2} is not automorphic
   to the sibling pair {0,1} in a (2,2) tree). *)
let branch_and_bound ?(eps = 0.0) topo hg =
  let k = Topology.num_leaves topo in
  let n = Hypergraph.num_nodes hg in
  let cap =
    Partition.capacity ~eps
      ~total_weight:(Hypergraph.total_node_weight hg)
      ~k ()
  in
  if k * cap < Hypergraph.total_node_weight hg then None
  else begin
    let order = Array.init n Fun.id in
    let degree v = Hypergraph.node_degree hg v in
    Array.sort (fun a b -> Int.compare (degree b) (degree a)) order;
    let colors = Array.make n (-1) in
    let weights = Array.make k 0 in
    let best_cost = ref infinity in
    let best = ref None in
    (* Partial hierarchical cost over the assigned pins of every edge. *)
    let partial_cost () =
      let total = ref 0.0 in
      for e = 0 to Hypergraph.num_edges hg - 1 do
        let leaves =
          List.sort_uniq Int.compare
            (Hypergraph.fold_pins hg e
               (fun acc v -> if colors.(v) >= 0 then colors.(v) :: acc else acc)
               [])
        in
        total :=
          !total
          +. (float_of_int (Hypergraph.edge_weight hg e)
             *. Hier_cost.edge_cost topo leaves)
      done;
      !total
    in
    let rec dfs i used =
      let lb = partial_cost () in
      if lb < !best_cost -. 1e-12 then begin
        if i = n then begin
          best_cost := lb;
          best := Some (Partition.create ~k (Array.copy colors))
        end
        else begin
          let v = order.(i) in
          let w = Hypergraph.node_weight hg v in
          let limit = if used = 0 then 0 else k - 1 in
          for c = 0 to limit do
            if weights.(c) + w <= cap then begin
              colors.(v) <- c;
              weights.(c) <- weights.(c) + w;
              dfs (i + 1) (max used (c + 1));
              weights.(c) <- weights.(c) - w;
              colors.(v) <- -1
            end
          done
        end
      end
    in
    dfs 0 0;
    match !best with
    | Some part -> Some { part; cost = !best_cost }
    | None -> None
  end

(* Exact-but-faster: the hierarchical optimum is sandwiched between the
   connectivity optimum and g_1 times it (Lemma 7.3).  Enumerate flat
   partitions in increasing connectivity cost via repeated branch-and-bound
   with an exclusion... in practice we take the simpler sound route:
   enumerate *all* flat partitions with connectivity cost <= g_1 * OPT_conn
   would still be exponential, so instead we bound: compute the optimally
   assigned two-step solution (an upper bound) and the connectivity optimum
   (a lower bound); when they coincide the value is exact. *)
let sandwich topo hg =
  match Solvers.Exact.solve ~eps:0.0 hg ~k:(Topology.num_leaves topo) with
  | None -> None
  | Some { Solvers.Exact.part; cost } ->
      let two = Two_step.of_flat topo hg part in
      Some (float_of_int cost, two.Two_step.hier_cost)
