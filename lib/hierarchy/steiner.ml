(* Arbitrary processor topologies (Appendix I.2): a weighted complete graph
   on k processors (weights = pairwise transfer costs, assumed to satisfy
   the triangle inequality).  The cost a hyperedge induces is the weight of
   the minimum Steiner tree spanning the processors it touches.

   - [exact]: Dreyfus-Wagner dynamic program, exponential in the number of
     terminals (fine for k <= ~12);
   - [mst_approx]: minimum spanning tree over the terminals in the metric
     closure — the classic 2-approximation. *)

type matrix = float array array

let validate (m : matrix) =
  let k = Array.length m in
  Array.iter
    (fun row ->
      if Array.length row <> k then invalid_arg "Steiner.validate: non-square matrix")
    m;
  for i = 0 to k - 1 do
    if m.(i).(i) <> 0.0 then invalid_arg "Steiner.validate: non-zero diagonal";
    for j = 0 to k - 1 do
      if abs_float (m.(i).(j) -. m.(j).(i)) > 1e-9 then
        invalid_arg "Steiner.validate: asymmetric matrix"
    done
  done;
  k

(* Matrix induced by a tree topology (lca-level transfer costs). *)
let of_topology topo =
  let k = Topology.num_leaves topo in
  Array.init k (fun a ->
      Array.init k (fun b ->
          if a = b then 0.0 else Topology.transfer_cost topo a b))

let mst_approx m terminals =
  let t = Array.length terminals in
  if t <= 1 then 0.0
  else begin
    (* Prim over the terminal set. *)
    let in_tree = Array.make t false in
    let dist = Array.make t infinity in
    in_tree.(0) <- true;
    for i = 1 to t - 1 do
      dist.(i) <- m.(terminals.(0)).(terminals.(i))
    done;
    let total = ref 0.0 in
    for _ = 1 to t - 1 do
      let best = ref (-1) in
      for i = 0 to t - 1 do
        if (not in_tree.(i)) && (!best < 0 || dist.(i) < dist.(!best)) then
          best := i
      done;
      total := !total +. dist.(!best);
      in_tree.(!best) <- true;
      for i = 0 to t - 1 do
        if not in_tree.(i) then
          dist.(i) <- min dist.(i) m.(terminals.(!best)).(terminals.(i))
      done
    done;
    !total
  end

(* Dreyfus-Wagner: dp.(mask).(v) = cheapest tree spanning the terminals in
   [mask] plus node v. *)
let exact m terminals =
  let k = validate m in
  let t = Array.length terminals in
  if t <= 1 then 0.0
  else if t > 14 then invalid_arg "Steiner.exact: too many terminals"
  else begin
    let full = (1 lsl t) - 1 in
    let dp = Array.make_matrix (full + 1) k infinity in
    for i = 0 to t - 1 do
      for v = 0 to k - 1 do
        dp.(1 lsl i).(v) <- m.(terminals.(i)).(v)
      done
    done;
    for mask = 1 to full do
      if mask land (mask - 1) <> 0 then begin
        (* Combine sub-splits. *)
        for v = 0 to k - 1 do
          let sub = ref ((mask - 1) land mask) in
          while !sub > 0 do
            if !sub land mask = !sub && !sub < mask then begin
              let other = mask lxor !sub in
              let cand = dp.(!sub).(v) +. dp.(other).(v) in
              if cand < dp.(mask).(v) then dp.(mask).(v) <- cand
            end;
            sub := (!sub - 1) land mask
          done
        done;
        (* Relax through intermediate nodes (Dijkstra over the k nodes). *)
        let settled = Array.make k false in
        for _ = 1 to k do
          let best = ref (-1) in
          for v = 0 to k - 1 do
            if
              (not settled.(v))
              && (!best < 0 || dp.(mask).(v) < dp.(mask).(!best))
            then best := v
          done;
          let v = !best in
          settled.(v) <- true;
          for u = 0 to k - 1 do
            if not settled.(u) then begin
              let cand = dp.(mask).(v) +. m.(v).(u) in
              if cand < dp.(mask).(u) then dp.(mask).(u) <- cand
            end
          done
        done
      end
    done;
    let best = ref infinity in
    for v = 0 to k - 1 do
      if dp.(full).(v) < !best then best := dp.(full).(v)
    done;
    !best
  end

(* Total cost of a leaf-colored partition under an arbitrary topology:
   exact trees up to 14 terminals, the MST approximation beyond. *)
let cost m hg part =
  let total = ref 0.0 in
  for e = 0 to Hypergraph.num_edges hg - 1 do
    let terminals =
      Array.of_list
        (List.sort_uniq Int.compare
           (Hypergraph.fold_pins hg e
              (fun acc v -> Partition.color part v :: acc)
              []))
    in
    let tree_cost =
      if Array.length terminals <= 14 then exact m terminals
      else mst_approx m terminals
    in
    total :=
      !total +. (float_of_int (Hypergraph.edge_weight hg e) *. tree_cost)
  done;
  !total
