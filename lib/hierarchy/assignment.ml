(* The hierarchy assignment problem (Section 7.3, Appendix H): given a
   hypergraph already partitioned into k parts, assign the parts to the k
   leaf positions of the topology so that the hierarchical cost is
   minimized.

   Following Appendix H, the instance is first *contracted*: each part
   becomes a single node, uncut edges disappear, and identical contracted
   edges merge with summed weights.

   Solvers:
   - [exact]: enumerate all k! permutations (k <= 8), the general ground
     truth for any depth;
   - [exact_two_level]: d = 2 subset DP — the level-1 connectivity
     sum_e w_e * lambda^(1)_e is additive over groups, so
     dp(mask) = min over the group S containing the lowest free part, and
     the grouping is exact for any b2 in O(3^k)-ish time (k <= 16);
   - [matching_b2_2]: the polynomial algorithm of Lemma H.1 for b2 = 2 via
     maximum-weight perfect matching on pair co-traffic;
   - [local_search]: leaf-swap hill climbing for larger k. *)

type result = { leaf_of_part : int array; cost : float }

let contract_parts hg part =
  Hypergraph.contract hg (Partition.assignment part) (Partition.k part)

let identity k = Array.init k Fun.id

let cost_of topo contracted leaf_of_part =
  (* The contracted hypergraph has one node per part; its "partition" sends
     node j to leaf leaf_of_part.(j). *)
  let part =
    Partition.create ~k:(Topology.num_leaves topo) (Array.copy leaf_of_part)
  in
  Hier_cost.cost topo contracted part

let exact topo hg part =
  let k = Partition.k part in
  if k <> Topology.num_leaves topo then
    invalid_arg "Assignment.exact: arity mismatch";
  if k > 8 then invalid_arg "Assignment.exact: k > 8 (use exact_two_level)";
  let contracted = contract_parts hg part in
  let best = ref { leaf_of_part = identity k; cost = infinity } in
  let perm = Array.make k (-1) in
  let used = Array.make k false in
  let rec go i =
    if i = k then begin
      let c = cost_of topo contracted perm in
      if c < !best.cost then best := { leaf_of_part = Array.copy perm; cost = c }
    end
    else
      for leaf = 0 to k - 1 do
        if not used.(leaf) then begin
          used.(leaf) <- true;
          perm.(i) <- leaf;
          go (i + 1);
          used.(leaf) <- false
        end
      done
  in
  go 0;
  !best

(* d = 2: group the k parts into b1 groups of b2.  Total cost decomposes as
   sum_e w_e * (g1 * (lambda1 - 1) + (lambda2 - lambda1))   with g2 = 1
   = const + (g1 - 1) * sum_e w_e * lambda1_e
   and sum_e w_e * lambda1_e = sum over groups S of
   hits(S) = sum_e w_e * [e intersects S]: additive over groups. *)
let exact_two_level topo hg part =
  let k = Partition.k part in
  if Topology.depth topo <> 2 then
    invalid_arg "Assignment.exact_two_level: depth must be 2";
  if k <> Topology.num_leaves topo then
    invalid_arg "Assignment.exact_two_level: arity mismatch";
  if k > 16 then invalid_arg "Assignment.exact_two_level: k > 16";
  let b = Topology.branching topo in
  let b2 = b.(1) in
  let contracted = contract_parts hg part in
  let m = Hypergraph.num_edges contracted in
  (* Edge masks over parts. *)
  let edge_mask =
    Array.init m (fun e ->
        Hypergraph.fold_pins contracted e (fun acc v -> acc lor (1 lsl v)) 0)
  in
  let weight = Array.init m (Hypergraph.edge_weight contracted) in
  let hits mask =
    let acc = ref 0 in
    for e = 0 to m - 1 do
      if edge_mask.(e) land mask <> 0 then acc := !acc + weight.(e)
    done;
    !acc
  in
  let full = (1 lsl k) - 1 in
  let dp = Array.make (full + 1) max_int in
  let choice = Array.make (full + 1) 0 in
  dp.(0) <- 0;
  (* Enumerate groups of size b2 containing the lowest free part. *)
  let rec enum_groups base remaining start f =
    if remaining = 0 then f base
    else
      for v = start to k - 1 do
        enum_groups (base lor (1 lsl v)) (remaining - 1) (v + 1) f
      done
  in
  for mask = 1 to full do
    let a =
      let rec low i = if mask land (1 lsl i) <> 0 then i else low (i + 1) in
      low 0
    in
    enum_groups (1 lsl a) (b2 - 1) (a + 1) (fun group ->
        if group land mask = group then begin
          let rest = mask lxor group in
          if dp.(rest) < max_int then begin
            let cand = dp.(rest) + hits group in
            if cand < dp.(mask) then begin
              dp.(mask) <- cand;
              choice.(mask) <- group
            end
          end
        end)
  done;
  (* Rebuild the groups, then lay them out as consecutive leaf runs. *)
  let leaf_of_part = Array.make k 0 in
  let rec rebuild mask next_group =
    if mask <> 0 then begin
      let group = choice.(mask) in
      let slot = ref 0 in
      for v = 0 to k - 1 do
        if group land (1 lsl v) <> 0 then begin
          leaf_of_part.(v) <- (next_group * b2) + !slot;
          incr slot
        end
      done;
      rebuild (mask lxor group) (next_group + 1)
    end
  in
  rebuild full 0;
  { leaf_of_part; cost = cost_of topo (contract_parts hg part) leaf_of_part }

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

(* Bottom-up repeated matching for binary topologies (all b_i = 2): at
   every level, pair up the current groups by maximum-weight matching on
   co-located traffic, then treat each pair as one group a level higher.
   A natural polynomial heuristic generalizing Lemma H.1's exact b2 = 2
   bottom level to full depth. *)
let recursive_matching topo hg part =
  let k = Partition.k part in
  if k <> Topology.num_leaves topo then
    invalid_arg "Assignment.recursive_matching: arity mismatch";
  if Array.exists (fun b -> b <> 2) (Topology.branching topo) then
    invalid_arg "Assignment.recursive_matching: binary topologies only";
  let contracted = contract_parts hg part in
  let m = Hypergraph.num_edges contracted in
  let edge_mask =
    Array.init m (fun e ->
        Hypergraph.fold_pins contracted e (fun acc v -> acc lor (1 lsl v)) 0)
  in
  let weight_of = Array.init m (Hypergraph.edge_weight contracted) in
  (* A group is a list of part ids in leaf order, plus its part mask. *)
  let groups = ref (List.init k (fun p -> ([ p ], 1 lsl p))) in
  for _level = Topology.depth topo downto 1 do
    let arr = Array.of_list !groups in
    let count = Array.length arr in
    let pair_weight a b =
      let ma = snd arr.(a) and mb = snd arr.(b) in
      let total = ref 0 in
      for e = 0 to m - 1 do
        if edge_mask.(e) land ma <> 0 && edge_mask.(e) land mb <> 0 then
          total := !total + weight_of.(e)
      done;
      !total
    in
    let pairs = Pairing.max_weight ~k:count pair_weight in
    groups :=
      Array.to_list
        (Array.map
           (fun (a, b) ->
             (* hyplint: allow SRC02 — group lists hold <= k part ids and merge once per level: O(k) per level, not quadratic *)
             (fst arr.(a) @ fst arr.(b), snd arr.(a) lor snd arr.(b)))
           pairs)
  done;
  let leaf_of_part = Array.make k 0 in
  (match !groups with
  | [ (order, _) ] -> List.iteri (fun leaf p -> leaf_of_part.(p) <- leaf) order
  | _ -> assert false);
  { leaf_of_part; cost = cost_of topo contracted leaf_of_part }

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
