(* The main reduction (Theorem 4.1 / Lemma C.1) with its Appendix C
   variants: Minimum p-Union sources (C.5), k >= 3 colors (C.4) and
   degree-2 grid gadgets (C.6, with the hyperDAG padding of C.3).

   Given a source hypergraph (V, E) whose p-edge selections are the
   solutions, a balance parameter eps and k, the construction has:
   - a gadget B_e of m nodes for every source edge e, too costly to split;
   - a node b_v for every source node v, and one *main hyperedge* per v:
     b_v plus v's port in each gadget B_e with v in e;
   - anchors A (blue, tied to every b_v) and A' (red), and for k >= 3
     k0 - 2 filler blocks, k0 = ceil(k / (1 + eps)) the fewest parts that
     can cover the nodes;
   - sizes such that blue's capacity is exactly A, the b_v and |E| - p
     gadgets, while every other color holds t0 > s nodes, s the size of
     all gadgets and b_v together: A and A' cannot share a color, and
     exactly p gadgets join A'.

   Then the cut main hyperedges are the nodes of the union of the p red
   edges, and the optimal partition cost is the source optimum. *)

type t = {
  source : Hypergraph.t;
  p : int;
  k : int;
  hypergraph : Hypergraph.t;
  gadgets : int array array; (* per source edge e: the nodes of B_e *)
  a'_nodes : int array;
  fillers : int array array;
  capacity : int;
}

(* The least total n' >= 2s at which n' - cap splits into k0 - 1 equal
   components of size t0 <= cap with t0 > s, blue holds A plus the s - pm
   unchosen nodes (a + s - pm = cap), red holds A' plus the p chosen
   gadgets of m nodes (a' + pm = t0), and the gadget can build both
   anchors ([anchors_ok a a']).  Returns (cap, a, a', t0). *)
let sizes ~eps ~k ~k0 source ~p ~m ~anchors_ok =
  let s = (Hypergraph.num_edges source * m) + Hypergraph.num_nodes source in
  let pm = p * m in
  let rec search n' =
    let cap = Partition.capacity ~eps ~total_weight:n' ~k () in
    let rest = n' - cap in
    let t0 = rest / (k0 - 1) in
    let a = cap - s + pm and a' = t0 - pm in
    if
      rest mod (k0 - 1) = 0 && t0 <= cap && t0 > s && anchors_ok a a'
    then (cap, a, a', t0)
    else search (n' + 1)
  in
  search (2 * s)

(* The main hyperedges, in source node order; [port e v] is the node of
   B_e that stands for v. *)
let add_main_edges b source vertex_nodes port =
  Array.iteri
    (fun v b_v ->
      let incident = Hypergraph.incident_edges source v in
      let ports = Array.map (fun e -> port e v) incident in
      ignore (Hypergraph.Builder.add_edge b (Array.append [| b_v |] ports)))
    vertex_nodes

let build ?(eps = 0.0) source ~k ~p =
  if k < 2 then invalid_arg "Spes_to_partition.build: k < 2";
  if p < 1 || p > Hypergraph.num_edges source then
    invalid_arg "Spes_to_partition.build: bad p";
  let k0 =
    max 2 (int_of_float (ceil ((float_of_int k /. (1.0 +. eps)) -. 1e-9)))
  in
  if k >= 3 && k0 = 2 then
    invalid_arg
      "Spes_to_partition.build: with 2(1+eps) >= k the k = 2 construction \
       applies";
  let n = Hypergraph.num_nodes source in
  let m = n + 1 in
  let cap, a, a', t0 =
    sizes ~eps ~k ~k0 source ~p ~m ~anchors_ok:(fun a a' -> a >= 2 && a' >= 2)
  in
  let b = Hypergraph.Builder.create () in
  let block size = Hypergraph.Gadgets.block b ~size in
  let gadgets = Array.init (Hypergraph.num_edges source) (fun _ -> block m) in
  let vertex_nodes = Hypergraph.Builder.add_nodes b n in
  let a_nodes = block a in
  let a'_nodes = block a' in
  let fillers = Array.init (k0 - 2) (fun _ -> block t0) in
  add_main_edges b source vertex_nodes (fun e _ -> gadgets.(e).(0));
  (* m parallel edges tie each b_v to A. *)
  Array.iter
    (fun b_v ->
      for j = 0 to m - 1 do
        ignore (Hypergraph.Builder.add_edge b [| a_nodes.(j mod a); b_v |])
      done)
    vertex_nodes;
  let hypergraph = Hypergraph.Builder.build b in
  assert (Hypergraph.num_nodes hypergraph = cap + ((k0 - 1) * t0));
  { source; p; k; hypergraph; gadgets; a'_nodes; fillers; capacity = cap }

(* [target] as side^2 cells plus at most 2 * side outsiders. *)
let grid_shape target =
  let side = int_of_float (sqrt (float_of_int target)) in
  let side = if side * side > target then side - 1 else side in
  (side, target - (side * side))

let build_delta2 ?(eps = 0.0) ?(hyperdag = false) graph ~p =
  let source = Npc.Graph.to_hypergraph graph in
  if p < 1 || p > Hypergraph.num_edges source then
    invalid_arg "Spes_to_partition.build_delta2: bad p";
  let n = Npc.Graph.num_nodes graph in
  let ell = 2 * n in
  (* An anchor grid needs 4 cells and a node more, and outsider slots for
     its [extra] outsiders: A's are the n vertex nodes.  The hyperDAG form
     also needs a padding outsider, its degree-1 node of Appendix C.3. *)
  let anchor_ok ~extra size =
    let side, pad = grid_shape size in
    size >= 5 && pad + extra <= 2 * side && ((not hyperdag) || pad >= 1)
  in
  let cap, a, a', _ =
    sizes ~eps ~k:2 ~k0:2 source ~p ~m:((ell * ell) + 2)
      ~anchors_ok:(fun a a' -> anchor_ok ~extra:n a && anchor_ok ~extra:0 a')
  in
  let b = Hypergraph.Builder.create () in
  let grid side outsiders = Hypergraph.Gadgets.grid ~outsiders b ~side in
  let grids = Array.init (Npc.Graph.num_edges graph) (fun _ -> grid ell 2) in
  let a_side, a_pad = grid_shape a in
  (* b_v is the outsider of A after the padding ones. *)
  let a_grid = grid a_side (a_pad + n) in
  let a'_side, a'_pad = grid_shape a' in
  let a'_grid = grid a'_side a'_pad in
  let vertex_nodes = Array.sub a_grid.Hypergraph.Gadgets.outsiders a_pad n in
  (* Edge e = (u, v) with u < v: outsider 0 of B_e stands for u, 1 for v. *)
  add_main_edges b source vertex_nodes (fun e v ->
      let slot = if fst (Npc.Graph.edges graph).(e) = v then 0 else 1 in
      grids.(e).Hypergraph.Gadgets.outsiders.(slot));
  let hypergraph = Hypergraph.Builder.build b in
  {
    source;
    p;
    k = 2;
    hypergraph;
    gadgets = Array.map Hypergraph.Gadgets.grid_nodes grids;
    a'_nodes = Hypergraph.Gadgets.grid_nodes a'_grid;
    fillers = [||];
    capacity = cap;
  }

let hypergraph t = t.hypergraph
let capacity t = t.capacity

let embed t chosen =
  if Array.length chosen <> t.p then
    invalid_arg "Spes_to_partition.embed: need exactly p edges";
  let colors = Array.make (Hypergraph.num_nodes t.hypergraph) 0 in
  let paint c nodes = Array.iter (fun v -> colors.(v) <- c) nodes in
  paint 1 t.a'_nodes;
  Array.iter (fun e -> paint 1 t.gadgets.(e)) chosen;
  Array.iteri (fun i filler -> paint (2 + i) filler) t.fillers;
  Partition.create ~k:t.k colors

let extract t part =
  let counts = Array.make (Partition.k part) 0 in
  Array.iter
    (fun v ->
      let c = Partition.color part v in
      counts.(c) <- counts.(c) + 1)
    t.a'_nodes;
  let red = ref 0 in
  Array.iteri (fun c count -> if count >= counts.(!red) then red := c) counts;
  let score e =
    Support.Util.array_count
      (fun v -> Partition.color part v = !red)
      t.gadgets.(e)
  in
  let order = Array.init (Array.length t.gadgets) Fun.id in
  Array.sort (fun x y -> Int.compare (score y) (score x)) order;
  Array.sub order 0 t.p

let union_size t chosen = Npc.Mpu.union_size t.source chosen
