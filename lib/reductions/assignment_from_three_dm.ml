(* Lemma H.2: the hierarchy assignment problem with d = 2 levels and
   b2 = 3 is NP-hard — via 3-Dimensional Matching.

   The (already contracted) instance has k = 3q part-nodes, the elements
   of X + Y + Z.  Hyperedges:
   - for each 3DM triple (x, y, z): the three pairs {x,y}, {x,z}, {y,z}
     as weight-1 edges (turning the triple's (1,2)-gain into (1,3));
   - for each tripartite triple that is NOT a 3DM triple: a weight-1
     size-3 hyperedge (the "(-1,-2)-gain" correction);
   - for each tripartite triple: a size-3 hyperedge of large weight w0
     (forcing any optimal grouping to be tripartite).

   A perfect matching exists iff the maximum achievable gain (the
   worst-case cost minus the realized level-1 connectivity) reaches
     q * (3 * (k - 3) + 3)  +  q * (k - 1) * w0. *)

type t = {
  instance : Npc.Three_dm.instance;
  hypergraph : Hypergraph.t;
  topology : Hierarchy.Topology.t;
  k : int;
  w0 : int;
  target_gain : int;
}

let node_of_x x = x
let node_of_y ~q y = q + y
let node_of_z ~q z = (2 * q) + z

let build instance =
  let q = Npc.Three_dm.size instance in
  let k = 3 * q in
  let w0 = 3 * k * k in
  let b = Hypergraph.Builder.create () in
  let _nodes = Hypergraph.Builder.add_nodes b k in
  let is_triple = Hashtbl.create 64 in
  Array.iter
    (fun tr -> Hashtbl.replace is_triple tr ())
    (Npc.Three_dm.triples instance);
  Array.iter
    (fun (x, y, z) ->
      let nx = node_of_x x and ny = node_of_y ~q y and nz = node_of_z ~q z in
      ignore (Hypergraph.Builder.add_edge b [| nx; ny |]);
      ignore (Hypergraph.Builder.add_edge b [| nx; nz |]);
      ignore (Hypergraph.Builder.add_edge b [| ny; nz |]))
    (Npc.Three_dm.triples instance);
  (* The "(-1,-2)-gain" correction: a weight-1 size-3 edge for EVERY
     3-subset of the k nodes that is not an original triple (the proof
     phrases this as subtracting a guaranteed gain). *)
  let original_as_nodes = Hashtbl.create 64 in
  Array.iter
    (fun (x, y, z) ->
      Hashtbl.replace original_as_nodes
        (List.sort Int.compare [ node_of_x x; node_of_y ~q y; node_of_z ~q z ])
        ())
    (Npc.Three_dm.triples instance);
  Support.Util.iter_subsets ~n:k ~k:3 (fun subset ->
      if not (Hashtbl.mem original_as_nodes (Array.to_list subset)) then
        ignore (Hypergraph.Builder.add_edge b subset));
  (* Large-weight edges on every tripartite triple, forcing tripartite
     groupings. *)
  for x = 0 to q - 1 do
    for y = 0 to q - 1 do
      for z = 0 to q - 1 do
        let pins = [| node_of_x x; node_of_y ~q y; node_of_z ~q z |] in
        ignore (Hypergraph.Builder.add_edge ~weight:w0 b pins)
      done
    done
  done;
  let hypergraph = Hypergraph.Builder.build b in
  let topology = Hierarchy.Topology.two_level ~b1:q ~b2:3 ~g1:2.0 in
  let target_gain = (q * ((3 * (k - 3)) + 3)) + (q * (k - 1) * w0) in
  { instance; hypergraph; topology; k; w0; target_gain }

(* The level-1 gain of a grouping (leaf assignment): sum over edges of
   w_e * (|e| - lambda1_e). *)
let gain t leaf_of_part =
  let q = Npc.Three_dm.size t.instance in
  let group leaf = leaf / 3 in
  ignore q;
  let total = ref 0 in
  for e = 0 to Hypergraph.num_edges t.hypergraph - 1 do
    let groups =
      List.sort_uniq Int.compare
        (Hypergraph.fold_pins t.hypergraph e
           (fun acc v -> group leaf_of_part.(v) :: acc)
           [])
    in
    let size = Hypergraph.edge_size t.hypergraph e in
    total :=
      !total
      + (Hypergraph.edge_weight t.hypergraph e * (size - List.length groups))
  done;
  !total

(* Encode a perfect matching as a leaf assignment grouping each triple. *)
let embed t matching =
  let q = Npc.Three_dm.size t.instance in
  let leaf_of_part = Array.make t.k 0 in
  List.iteri
    (fun g (x, y, z) ->
      leaf_of_part.(node_of_x x) <- 3 * g;
      leaf_of_part.(node_of_y ~q y) <- (3 * g) + 1;
      leaf_of_part.(node_of_z ~q z) <- (3 * g) + 2)
    matching;
  leaf_of_part

(* Best gain over all groupings via the exact assignment search; k <= 16
   keeps f(k) at most 1,401,400 (q = 5). *)
let best_gain t =
  if t.k > 16 then invalid_arg "Assignment_from_three_dm.best_gain: k > 16";
  let identity = Partition.create ~k:t.k (Array.init t.k Fun.id) in
  let r = Hierarchy.Assignment.exact t.topology t.hypergraph identity in
  gain t r.Hierarchy.Assignment.leaf_of_part

let matching_exists_via_assignment t = best_gain t >= t.target_gain

let hypergraph t = t.hypergraph
let topology t = t.topology
let target_gain t = t.target_gain
