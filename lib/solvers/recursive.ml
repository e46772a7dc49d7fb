(* Recursive partitioning (Section 7.1): split the node set into groups
   that each carry a fixed number of final parts, then recurse on each
   group's sub-hypergraph until a group carries one part.  Recursive
   bisection splits a group carrying p parts into ceil(p/2) and floor(p/2);
   on a topology, level i splits every group into b_i equal shares.

   Besides being a standard heuristic, this is the method of Lemma 7.2,
   which exhibits instances where even *optimal* recursive steps end up a
   Theta(n) factor off the direct k-way optimum (experiment E7). *)

(* A 2-way split whose sides carry [parts_left] and [parts_right] unequal
   shares: greedy fill of the left side to its capacity in random order,
   then positive-gain moves while both sides stay under their capacities
   (side s may weigh (1+eps) * W * parts_s / (parts_left + parts_right),
   and no more than parts_s final parts hold). *)
let ratio_split ~eps ~part_cap rng hg ~parts_left ~parts_right =
  let total = Hypergraph.total_node_weight hg in
  let n = Hypergraph.num_nodes hg in
  let capacity parts =
    min (parts * part_cap)
      (int_of_float
         (floor
            ((1.0 +. eps) *. float_of_int (total * parts)
             /. float_of_int (parts_left + parts_right)
            +. 1e-9)))
  in
  let cap = [| capacity parts_left; capacity parts_right |] in
  let colors = Array.make n 1 in
  let weights = [| 0; total |] in
  Array.iter
    (fun v ->
      let w = Hypergraph.node_weight hg v in
      if weights.(0) + w <= cap.(0) then begin
        colors.(v) <- 0;
        weights.(0) <- weights.(0) + w;
        weights.(1) <- weights.(1) - w
      end)
    (Support.Rng.permutation rng n);
  let part = Partition.create ~k:2 colors in
  let counts = Pin_counts.create hg part in
  let improved = ref true in
  while !improved do
    improved := false;
    for v = 0 to n - 1 do
      let src = colors.(v) in
      let dst = 1 - src in
      let w = Hypergraph.node_weight hg v in
      if
        weights.(dst) + w <= cap.(dst)
        && Pin_counts.move_delta counts v ~src ~dst < 0
      then begin
        Pin_counts.move counts v ~src ~dst;
        colors.(v) <- dst;
        weights.(src) <- weights.(src) - w;
        weights.(dst) <- weights.(dst) + w;
        improved := true
      end
    done
  done;
  part

(* Split [hg] into one side per entry of [shares] (the final parts each
   side carries), no side heavier than its share of final parts of
   capacity [part_cap] can hold.  Equal shares s pass the multilevel
   partitioner the eps whose capacity is s * part_cap when that binds
   (0 when even that is too little). *)
let split ~eps ~part_cap rng hg shares =
  match shares with
  | [| parts_left; parts_right |] when parts_left <> parts_right ->
      ratio_split ~eps ~part_cap rng hg ~parts_left ~parts_right
  | _ ->
      let k = Array.length shares in
      let total_weight = Hypergraph.total_node_weight hg in
      let cap = shares.(0) * part_cap in
      let eps =
        if Partition.capacity ~eps ~total_weight ~k () <= cap then eps
        else
          Float.max 0.0
            ((float_of_int (cap * k) /. float_of_int total_weight) -. 1.0)
      in
      Multilevel.partition ~config:{ Multilevel.default_config with eps } rng
        hg ~k

(* The driver: [children ~level ~parts] is the shares of the children of a
   group at depth [level] carrying [parts] final parts ([||] for a leaf),
   the first child's share the largest.  Colors are handed out
   depth-first, so a group's parts are consecutive and its j-th child's
   come after its first j children's.

   Every split gets eps' = (1+eps)^(1/L) - 1, L the depth of the
   recursion, so a final part stays within (1+eps) W/k wherever every
   split is balanced.  A side carrying s parts is also capped at s times
   the final capacity floor((1+eps) W/k), so that no upper split leaves a
   side the lower splits cannot divide.  Under cut-net a side recurses on
   its induced sub-hypergraph: an edge a split cuts has paid its cost
   once. *)
let run ~eps ~metric rng hg ~k ~children =
  Obs.Span.with_ "recursive"
    ~attrs:[ ("n", Obs.Int (Hypergraph.num_nodes hg)); ("k", Obs.Int k) ]
  @@ fun () ->
  let part_cap =
    Partition.capacity ~eps ~total_weight:(Hypergraph.total_node_weight hg) ~k
      ()
  in
  let rec depth ~level ~parts =
    match children ~level ~parts with
    | [||] -> 0
    | shares -> 1 + depth ~level:(level + 1) ~parts:shares.(0)
  in
  let levels = depth ~level:0 ~parts:k in
  let eps =
    if levels <= 1 then eps
    else ((1.0 +. eps) ** (1.0 /. float_of_int levels)) -. 1.0
  in
  let side sub local =
    match metric with
    | Partition.Connectivity -> Hypergraph.restrict sub local
    | Partition.Cut_net ->
        let induced, _, _ = Hypergraph.induced_subgraph sub local in
        induced
  in
  let n = Hypergraph.num_nodes hg in
  let colors = Array.make n 0 in
  let rec go sub old_ids ~level ~first ~parts =
    match children ~level ~parts with
    | [||] -> Array.iter (fun v -> colors.(v) <- first) old_ids
    | shares ->
        let part =
          Obs.Span.with_ "recursive.split"
            ~attrs:
              [
                ("level", Obs.Int level);
                ("nodes", Obs.Int (Hypergraph.num_nodes sub));
                ("parts", Obs.Int parts);
              ]
            (fun () -> split ~eps ~part_cap rng sub shares)
        in
        let first = ref first in
        Array.iteri
          (fun j share ->
            let ids = ref [] in
            for v = Hypergraph.num_nodes sub - 1 downto 0 do
              if Partition.color part v = j then ids := v :: !ids
            done;
            let local = Array.of_list !ids in
            if Array.length local > 0 then
              go (side sub local)
                (Array.map (fun v -> old_ids.(v)) local)
                ~level:(level + 1) ~first:!first ~parts:share;
            first := !first + share)
          shares
  in
  go hg (Array.init n Fun.id) ~level:0 ~first:0 ~parts:k;
  Audit_gate.checked hg (Partition.create ~k colors)

let bisection ?(eps = 0.03) ?(metric = Partition.Connectivity) rng hg ~k =
  if k < 1 then invalid_arg "Recursive.bisection: k >= 1";
  run ~eps ~metric rng hg ~k ~children:(fun ~level:_ ~parts ->
      if parts = 1 then [||] else [| (parts + 1) / 2; parts / 2 |])

let hierarchical ?(eps = 0.03) rng topo hg =
  let b = Partition.Topology.branching topo in
  run ~eps ~metric:Partition.Connectivity rng hg
    ~k:(Partition.Topology.num_leaves topo) ~children:(fun ~level ~parts ->
      if parts = 1 then [||] else Array.make b.(level) (parts / b.(level)))
