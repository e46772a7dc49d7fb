(* Exact branch-and-bound partitioner, the ground truth for small instances
   (gadget-scale verification of every reduction, and the optimal baselines
   of the experiments).

   DFS over nodes in decreasing weighted-degree order with
   - incremental lower bound: for each edge, the colors already present can
     only grow, so sum_e w_e * (distinct_e - 1) (connectivity) or
     sum_e w_e * [distinct_e >= 2] (cut-net) is admissible;
   - balance pruning against the epsilon capacity;
   - optional color-symmetry breaking (a node may open at most one new
     color), sound whenever the extra feasibility predicate is
     color-symmetric. *)

type result = { cost : int; part : Partition.t }

let solve ?(metric = Partition.Connectivity) ?(variant = Partition.Strict)
    ?(eps = 0.0) ?upper_bound ?(symmetry = true) ?feasible ?constrained hg ~k
    =
 Obs.Span.with_ "exact.solve"
   ~attrs:[ ("n", Obs.Int (Hypergraph.num_nodes hg)); ("k", Obs.Int k) ]
 @@ fun () ->
  (* [constrained]: per-class color capacities (layer-wise / Definition 6.1
     instances), enforced during the search rather than only at leaves. *)
  let class_of, class_caps =
    match (constrained : Constrained.instance option) with
    | Some inst -> (inst.Constrained.classes, inst.Constrained.caps)
    | None -> ([||], [||])
  in
  let class_occ = Array.make (Array.length class_caps * k) 0 in
  let n = Hypergraph.num_nodes hg in
  let m = Hypergraph.num_edges hg in
  let cap =
    Partition.capacity ~variant ~eps
      ~total_weight:(Hypergraph.total_node_weight hg)
      ~k ()
  in
  if k * cap < Hypergraph.total_node_weight hg then None
  else begin
    (* Most-constrained-first node order. *)
    let order = Array.init n Fun.id in
    let weighted_degree v =
      Hypergraph.fold_incident hg v
        (fun acc e -> acc + Hypergraph.edge_weight hg e)
        0
    in
    Array.sort (fun a b -> Int.compare (weighted_degree b) (weighted_degree a)) order;
    let colors = Array.make n (-1) in
    let weights = Array.make k 0 in
    let counts = Array.make (m * k) 0 in
    let lambdas = Array.make m 0 in
    let lb = ref 0 in
    let best_cost = ref (match upper_bound with Some u -> u + 1 | None -> max_int) in
    let best = ref None in
    let assign v c =
      colors.(v) <- c;
      weights.(c) <- weights.(c) + Hypergraph.node_weight hg v;
      if Array.length class_of > 0 && class_of.(v) >= 0 then begin
        let idx = (class_of.(v) * k) + c in
        class_occ.(idx) <- class_occ.(idx) + 1
      end;
      Hypergraph.iter_incident hg v (fun e ->
          let idx = (e * k) + c in
          if counts.(idx) = 0 then begin
            lambdas.(e) <- lambdas.(e) + 1;
            if lambdas.(e) >= 2 then
              match metric with
              | Partition.Connectivity -> lb := !lb + Hypergraph.edge_weight hg e
              | Partition.Cut_net ->
                  if lambdas.(e) = 2 then lb := !lb + Hypergraph.edge_weight hg e
          end;
          counts.(idx) <- counts.(idx) + 1)
    in
    let unassign v c =
      colors.(v) <- -1;
      weights.(c) <- weights.(c) - Hypergraph.node_weight hg v;
      if Array.length class_of > 0 && class_of.(v) >= 0 then begin
        let idx = (class_of.(v) * k) + c in
        class_occ.(idx) <- class_occ.(idx) - 1
      end;
      Hypergraph.iter_incident hg v (fun e ->
          let idx = (e * k) + c in
          counts.(idx) <- counts.(idx) - 1;
          if counts.(idx) = 0 then begin
            if lambdas.(e) >= 2 then
              (match metric with
              | Partition.Connectivity -> lb := !lb - Hypergraph.edge_weight hg e
              | Partition.Cut_net ->
                  if lambdas.(e) = 2 then lb := !lb - Hypergraph.edge_weight hg e);
            lambdas.(e) <- lambdas.(e) - 1
          end)
    in
    let rec dfs i used =
      if !lb < !best_cost then begin
        if i = n then begin
          let part = Partition.create ~k (Array.copy colors) in
          let ok = match feasible with None -> true | Some f -> f part in
          if ok then begin
            best_cost := !lb;
            best := Some part
          end
        end
        else begin
          let v = order.(i) in
          let w = Hypergraph.node_weight hg v in
          let limit = if symmetry then min (k - 1) used else k - 1 in
          (* Order candidate colors by the immediate lb increase. *)
          let class_ok c =
            Array.length class_of = 0 || class_of.(v) < 0
            || class_occ.((class_of.(v) * k) + c) < class_caps.(class_of.(v))
          in
          let cands = ref [] in
          for c = limit downto 0 do
            if weights.(c) + w <= cap && class_ok c then begin
              let delta = ref 0 in
              Hypergraph.iter_incident hg v (fun e ->
                  if counts.((e * k) + c) = 0 then begin
                    let we = Hypergraph.edge_weight hg e in
                    match metric with
                    | Partition.Connectivity ->
                        if lambdas.(e) >= 1 then delta := !delta + we
                    | Partition.Cut_net ->
                        if lambdas.(e) = 1 then delta := !delta + we
                  end);
              cands := (!delta, c) :: !cands
            end
          done;
          let cands = List.sort Support.Order.int_pair !cands in
          List.iter
            (fun (_, c) ->
              assign v c;
              dfs (i + 1) (max used (c + 1));
              unassign v c)
            cands
        end
      end
    in
    dfs 0 0;
    match !best with
    | Some part ->
        ignore
          (Audit_gate.checked ~eps ~variant
             ~claimed:{ Analysis_core.Audit_partition.metric; cost = !best_cost }
             hg part);
        Some { cost = !best_cost; part }
    | None -> None
  end

let optimum ?metric ?variant ?eps hg ~k =
  match solve ?metric ?variant ?eps hg ~k with
  | Some { cost; _ } -> Some cost
  | None -> None

let decision hg ~k ~cost_limit =
  match solve ~upper_bound:cost_limit hg ~k with
  | Some { cost; _ } -> cost <= cost_limit
  | None -> false

(* Exhaustive enumeration of all k-colorings (no pruning): brute-force
   reference for the branch-and-bound itself, usable for n up to ~12. *)
let brute_force ?(metric = Partition.Connectivity) ?(eps = 0.0) hg ~k =
  let n = Hypergraph.num_nodes hg in
  let best = ref None in
  Support.Util.iter_tuples ~base:k ~len:n (fun colors ->
      let part = Partition.create ~k (Array.copy colors) in
      if Partition.is_balanced ~eps hg part then begin
        let c = Partition.cost ~metric hg part in
        match !best with
        | Some { cost; _ } when cost <= c -> ()
        | _ -> best := Some { cost = c; part }
      end);
  (match !best with
  | Some { cost; part } ->
      ignore
        (Audit_gate.checked ~eps
           ~claimed:{ Analysis_core.Audit_partition.metric; cost }
           hg part)
  | None -> ());
  !best
