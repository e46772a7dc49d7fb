(* Exact branch-and-bound partitioner, the ground truth for small instances
   (gadget-scale verification of every reduction, the optimal baselines of
   the experiments, and the Definition 7.1 optima of Section 7).

   One depth-first search over nodes in decreasing weighted-degree order
   serves every objective.  It prices a partial assignment by what each
   edge's part set S gains when a node joins it with part c (c not in S):
   - connectivity: w_e once S is non-empty;
   - cut-net: w_e when S grows from one part to two;
   - Definition 7.1: w_e times the transfer cost from leaf c to the
     nearest leaf of S.  That is exactly edge_cost (S ∪ {c}) − edge_cost S:
     c's ancestors are new to S from the level where it parts from that
     leaf down, and only the top one of them is paid for.
   Part sets only grow, so the price of the placed nodes is an admissible
   bound.  It is kept per depth, so backtracking restores it exactly.  The
   search also prunes on the ε capacity and on optional class caps, and it
   breaks symmetry with one opening rule: a node may take a leaf only if,
   at every level, the leaf's child index is at most the number of its
   parent's children that already hold a node.  A metric's tree is one
   level of k parts, where the rule reads c ≤ (parts in use).  The flat
   rule is unsound on deeper trees: {0,2} is not automorphic to {0,1} in a
   (2,2) tree. *)

type _ objective =
  | Metric : Partition.metric -> int objective
  | Hierarchical : Partition.Topology.t -> float objective

type 'c result = { cost : 'c; part : Partition.t }

let of_price (type c) (objective : c objective) price : c =
  match objective with Metric _ -> int_of_float price | Hierarchical _ -> price

(* [gain e c]: the price of part c joining edge e's part set, read from the
   pin counts per (edge, part) and the part count per edge. *)
let pricing (type c) (objective : c objective) hg ~k ~counts ~lambdas =
  let weight e = float_of_int (Hypergraph.edge_weight hg e) in
  match objective with
  | Metric Partition.Connectivity ->
      fun e _ -> if lambdas.(e) >= 1 then weight e else 0.0
  | Metric Partition.Cut_net ->
      fun e _ -> if lambdas.(e) = 1 then weight e else 0.0
  | Hierarchical topo ->
      let transfer =
        Array.init (k * k) (fun i ->
            let a = i / k and b = i mod k in
            if a = b then 0.0 else Partition.Topology.transfer_cost topo a b)
      in
      fun e c ->
        if lambdas.(e) = 0 then 0.0
        else begin
          let nearest = ref infinity in
          for l = 0 to k - 1 do
            if counts.((e * k) + l) > 0 then
              nearest := Float.min !nearest transfer.((c * k) + l)
          done;
          weight e *. !nearest
        end

let audit (type c) (objective : c objective) ~eps ~variant price hg part =
  let claimed =
    match objective with
    | Metric metric ->
        Some
          { Analysis_core.Audit_partition.metric; cost = int_of_float price }
    | Hierarchical _ -> None
  in
  ignore (Audit_gate.checked ~eps ~variant ?claimed hg part)

let search (type c) (objective : c objective) ~variant ~eps ~upper_bound
    ~symmetry ~feasible ~constrained hg ~k : c result option =
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
    let gain = pricing objective hg ~k ~counts ~lambdas in
    (* The opening rule.  Children open in index order, so a child of a
       tree node holds a placed node iff its leftmost leaf does, and leaf
       c may be taken iff at every level i where its ancestor is child
       q > 0 of its parent, the leftmost leaf of child q - 1 holds one.
       suffix.(i): leaves below one level-i tree node. *)
    let branching =
      match objective with
      | Metric _ -> [| k |]
      | Hierarchical topo -> Partition.Topology.branching topo
    in
    let d = Array.length branching in
    let suffix = Array.make (d + 1) 1 in
    for i = d - 1 downto 0 do
      suffix.(i) <- suffix.(i + 1) * branching.(i)
    done;
    let members = Array.make k 0 in
    let may_open c =
      let rec ok i =
        i > d
        || (let ancestor = c / suffix.(i) in
            (ancestor mod branching.(i - 1) = 0
            || members.((ancestor - 1) * suffix.(i)) > 0)
            && ok (i + 1))
      in
      (not symmetry) || ok 1
    in
    let bound = Array.make (n + 1) 0.0 in
    let best_cost =
      ref
        (match upper_bound with
        | Some u -> float_of_int u +. 1.0
        | None -> infinity)
    in
    let best = ref None in
    let shift_class v c delta =
      if Array.length class_of > 0 && class_of.(v) >= 0 then begin
        let idx = (class_of.(v) * k) + c in
        class_occ.(idx) <- class_occ.(idx) + delta
      end
    in
    let assign v c =
      colors.(v) <- c;
      weights.(c) <- weights.(c) + Hypergraph.node_weight hg v;
      shift_class v c 1;
      members.(c) <- members.(c) + 1;
      Hypergraph.iter_incident hg v (fun e ->
          let idx = (e * k) + c in
          if counts.(idx) = 0 then lambdas.(e) <- lambdas.(e) + 1;
          counts.(idx) <- counts.(idx) + 1)
    in
    let unassign v c =
      colors.(v) <- -1;
      weights.(c) <- weights.(c) - Hypergraph.node_weight hg v;
      shift_class v c (-1);
      members.(c) <- members.(c) - 1;
      Hypergraph.iter_incident hg v (fun e ->
          let idx = (e * k) + c in
          counts.(idx) <- counts.(idx) - 1;
          if counts.(idx) = 0 then lambdas.(e) <- lambdas.(e) - 1)
    in
    let rec dfs i =
      if bound.(i) < !best_cost then begin
        if i = n then begin
          let part = Partition.create ~k (Array.copy colors) in
          let ok = match feasible with None -> true | Some f -> f part in
          if ok then begin
            best_cost := bound.(i);
            best := Some part
          end
        end
        else begin
          let v = order.(i) in
          let w = Hypergraph.node_weight hg v in
          let class_ok c =
            Array.length class_of = 0 || class_of.(v) < 0
            || class_occ.((class_of.(v) * k) + c) < class_caps.(class_of.(v))
          in
          (* Order candidate parts by the bound's immediate increase. *)
          let cands = ref [] in
          for c = k - 1 downto 0 do
            if weights.(c) + w <= cap && class_ok c && may_open c then begin
              let delta =
                Hypergraph.fold_incident hg v
                  (fun acc e ->
                    if counts.((e * k) + c) = 0 then acc +. gain e c else acc)
                  0.0
              in
              cands := (delta, c) :: !cands
            end
          done;
          let cands =
            List.sort (Support.Order.pair Float.compare Int.compare) !cands
          in
          List.iter
            (fun (delta, c) ->
              bound.(i + 1) <- bound.(i) +. delta;
              assign v c;
              dfs (i + 1);
              unassign v c)
            cands
        end
      end
    in
    dfs 0;
    match !best with
    | Some part ->
        audit objective ~eps ~variant !best_cost hg part;
        Some { cost = of_price objective !best_cost; part }
    | None -> None
  end

let solve ?(metric = Partition.Connectivity) ?(variant = Partition.Strict)
    ?(eps = 0.0) ?upper_bound ?(symmetry = true) ?feasible ?constrained hg ~k
    =
  search (Metric metric) ~variant ~eps ~upper_bound ~symmetry ~feasible
    ~constrained hg ~k

let hierarchical ?(eps = 0.0) topo hg =
  search (Hierarchical topo) ~variant:Partition.Strict ~eps ~upper_bound:None
    ~symmetry:true ~feasible:None ~constrained:None hg
    ~k:(Partition.Topology.num_leaves topo)

let optimum ?metric ?variant ?eps hg ~k =
  match solve ?metric ?variant ?eps hg ~k with
  | Some { cost; _ } -> Some cost
  | None -> None

let decision hg ~k ~cost_limit =
  match solve ~upper_bound:cost_limit hg ~k with
  | Some { cost; _ } -> cost <= cost_limit
  | None -> false

(* Exhaustive enumeration of all k-colorings (no pruning), keeping the
   first minimum: the reference for the search itself, usable for n up to
   ~12.  A metric is priced by [Partition.cost]; Definition 7.1 edge by
   edge, adding the edge's pins one at a time. *)
let brute_force (type c) ?(eps = 0.0) ?feasible (objective : c objective) hg
    ~k : c result option =
  (match objective with
  | Hierarchical topo when Partition.Topology.num_leaves topo <> k ->
      invalid_arg "Exact.brute_force: k must equal the topology's leaves"
  | _ -> ());
  let n = Hypergraph.num_nodes hg in
  let m = Hypergraph.num_edges hg in
  let counts = Array.make (m * k) 0 in
  let lambdas = Array.make m 0 in
  let gain = pricing objective hg ~k ~counts ~lambdas in
  let price part =
    match objective with
    | Metric metric -> float_of_int (Partition.cost ~metric hg part)
    | Hierarchical _ ->
        Array.fill counts 0 (m * k) 0;
        Array.fill lambdas 0 m 0;
        let total = ref 0.0 in
        for e = 0 to m - 1 do
          Hypergraph.iter_pins hg e (fun v ->
              let c = Partition.color part v in
              let idx = (e * k) + c in
              if counts.(idx) = 0 then begin
                total := !total +. gain e c;
                lambdas.(e) <- lambdas.(e) + 1
              end;
              counts.(idx) <- counts.(idx) + 1)
        done;
        !total
  in
  let best = ref None in
  Support.Util.iter_tuples ~base:k ~len:n (fun colors ->
      let part = Partition.create ~k (Array.copy colors) in
      if
        Partition.is_balanced ~eps hg part
        && match feasible with None -> true | Some f -> f part
      then begin
        let c = price part in
        match !best with
        | Some (cost, _) when cost <= c -> ()
        | _ -> best := Some (c, part)
      end);
  match !best with
  | Some (cost, part) ->
      audit objective ~eps ~variant:Partition.Strict cost hg part;
      Some { cost = of_price objective cost; part }
  | None -> None
