(* The hierarchy assignment problem (Section 7.3, Appendix H): given a
   hypergraph already partitioned into k parts, assign the parts to the k
   leaf positions of the topology so that the hierarchical cost is
   minimized.

   Following Appendix H, the instance is first *contracted*: each part
   becomes a single unit-weight node, uncut edges disappear, and identical
   contracted edges merge with summed weights.

   Solvers:
   - [exact]: the Definition 7.1 search of [Solvers.Exact] on the
     contracted instance at eps = 0.  Capacity 1 puts one part on each
     leaf, and the search's opening rule visits at most one complete
     assignment per class of equivalent ones, f(k) in all;
   - [matching_b2_2]: the polynomial algorithm of Lemma H.1 for b2 = 2 via
     maximum-weight perfect matching on pair co-traffic;
   - [local_search]: leaf-swap hill climbing for larger k. *)

type result = { leaf_of_part : int array; cost : float }

let contract_parts hg part =
  let k = Partition.k part in
  let merged = Hypergraph.contract hg (Partition.assignment part) k in
  Hypergraph.of_edges ~n:k
    ~edge_weights:(Hypergraph.csr_edge_weights merged)
    (Array.init (Hypergraph.num_edges merged) (Hypergraph.edge_pins merged))

let identity k = Array.init k Fun.id

let cost_of topo contracted leaf_of_part =
  (* The contracted hypergraph has one node per part; its "partition" sends
     node j to leaf leaf_of_part.(j). *)
  let part =
    Partition.create ~k:(Topology.num_leaves topo) (Array.copy leaf_of_part)
  in
  Hier_cost.cost topo contracted part

let exact topo hg part =
  if Partition.k part <> Topology.num_leaves topo then
    invalid_arg "Assignment.exact: arity mismatch";
  let contracted = contract_parts hg part in
  match Solvers.Exact.hierarchical ~eps:0.0 topo contracted with
  | Some { Solvers.Exact.part = placed; _ } ->
      let leaf_of_part = Partition.assignment placed in
      { leaf_of_part; cost = cost_of topo contracted leaf_of_part }
  | None -> assert false (* k unit-weight nodes always fill k leaves *)

(* Lemma H.1: b2 = 2 via maximum-weight perfect matching.  The weight of a
   pair (u, v) is the total weight of contracted edges containing both, the
   saving realized by making them bottom-level siblings. *)
let matching_b2_2 topo hg part =
  let k = Partition.k part in
  if Topology.depth topo <> 2 || (Topology.branching topo).(1) <> 2 then
    invalid_arg "Assignment.matching_b2_2: need d = 2, b2 = 2";
  if k <> Topology.num_leaves topo then
    invalid_arg "Assignment.matching_b2_2: arity mismatch";
  let contracted = contract_parts hg part in
  let pair_weight = Hashtbl.create 64 in
  for e = 0 to Hypergraph.num_edges contracted - 1 do
    let pins = Hypergraph.edge_pins contracted e in
    let w = Hypergraph.edge_weight contracted e in
    Array.iteri
      (fun i u ->
        Array.iteri
          (fun j v ->
            if i < j then begin
              let key = (u, v) in
              Hashtbl.replace pair_weight key
                (w
                +
                match Hashtbl.find_opt pair_weight key with
                | Some x -> x
                | None -> 0)
            end)
          pins)
      pins
  done;
  let w u v =
    let key = if u < v then (u, v) else (v, u) in
    match Hashtbl.find_opt pair_weight key with Some x -> x | None -> 0
  in
  let pairs = Pairing.max_weight ~k w in
  let leaf_of_part = Array.make k 0 in
  Array.iteri
    (fun g (a, b) ->
      leaf_of_part.(a) <- 2 * g;
      leaf_of_part.(b) <- (2 * g) + 1)
    pairs;
  { leaf_of_part; cost = cost_of topo contracted leaf_of_part }

(* Leaf-swap local search, any depth, at most [max_rounds] improving
   rounds. *)
let max_rounds = 50

let local_search topo hg part =
  let k = Partition.k part in
  if k <> Topology.num_leaves topo then
    invalid_arg "Assignment.local_search: arity mismatch";
  let contracted = contract_parts hg part in
  let assignment = identity k in
  let current = ref (cost_of topo contracted assignment) in
  let rounds = ref 0 and improved = ref true in
  while !improved && !rounds < max_rounds do
    incr rounds;
    improved := false;
    for a = 0 to k - 1 do
      for b = a + 1 to k - 1 do
        let tmp = assignment.(a) in
        assignment.(a) <- assignment.(b);
        assignment.(b) <- tmp;
        let c = cost_of topo contracted assignment in
        if c < !current -. 1e-9 then begin
          current := c;
          improved := true
        end
        else begin
          let tmp = assignment.(a) in
          assignment.(a) <- assignment.(b);
          assignment.(b) <- tmp
        end
      done
    done
  done;
  { leaf_of_part = assignment; cost = !current }

(* Number of non-equivalent assignments f(k) (Appendix H.1). *)
let count_assignments topo =
  let d = Topology.depth topo in
  let b = Topology.branching topo in
  let rec factorial n = if n <= 1 then 1.0 else float_of_int n *. factorial (n - 1) in
  let numerator = factorial (Topology.num_leaves topo) in
  let denominator = ref 1.0 in
  let nodes_at = ref 1 in
  for i = 0 to d - 1 do
    denominator := !denominator *. (factorial b.(i) ** float_of_int !nodes_at);
    nodes_at := !nodes_at * b.(i)
  done;
  numerator /. !denominator
