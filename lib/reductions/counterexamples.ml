(* The paper's counterexample constructions, as executable builders:
   Figure 2 (triangle), Figure 4 (serial concatenation), Figure 6
   (layer-wise limits), Figure 8 / Lemma 7.2 (recursive partitioning),
   Figure 9 / Theorem 7.4 (two-step method), and the Hendrickson-Kolda
   comparison of Appendix B. *)

(* Figure 2: the smallest hypergraph that is not a hyperDAG. *)
let triangle () =
  Hypergraph.of_edges ~n:3 [| [| 0; 1 |]; [| 1; 2 |]; [| 0; 2 |] |]

(* Figure 4: a perfectly balanced but completely unparallelizable split of
   two serially composed halves.  Returns (dag, the bad partition). *)
let serial_concatenation ~half =
  let dag =
    Hyperdag.Dag.concat_serial (Workloads.Dag_gen.independent half)
      (Workloads.Dag_gen.independent half)
  in
  let bad =
    Partition.create ~k:2
      (Array.init (2 * half) (fun v -> if v < half then 0 else 1))
  in
  (dag, bad)

(* Figure 6: two paths of length 3 from a source to a sink, with the first
   node of the upper path and the second node of the lower path split into
   b nodes each.  Layer-wise constraints force a Theta(b) cut; coloring the
   branches red/blue costs only 2. *)
type two_branch = {
  dag : Hyperdag.Dag.t;
  source : int;
  sink : int;
  upper_set : int array; (* the b split nodes, layer 1 *)
  upper_mid : int; (* layer 2 *)
  lower_first : int; (* layer 1 *)
  lower_set : int array; (* layer 2 *)
}

let two_branch ~b =
  let next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let source = fresh () in
  let upper_set = Array.init b (fun _ -> fresh ()) in
  let upper_mid = fresh () in
  let lower_first = fresh () in
  let lower_set = Array.init b (fun _ -> fresh ()) in
  let sink = fresh () in
  let edges = ref [] in
  Array.iter
    (fun u -> edges := (source, u) :: (u, upper_mid) :: !edges)
    upper_set;
  edges := (upper_mid, sink) :: !edges;
  edges := (source, lower_first) :: !edges;
  Array.iter
    (fun u -> edges := (lower_first, u) :: (u, sink) :: !edges)
    lower_set;
  let dag = Hyperdag.Dag.of_edges ~n:!next !edges in
  { dag; source; sink; upper_set; upper_mid; lower_first; lower_set }

(* The branch-coloring solution of Figure 6: upper branch red, lower blue;
   near-perfect parallelization, cut cost 2, but layer-wise infeasible. *)
let two_branch_branch_coloring t =
  let n = Hyperdag.Dag.num_nodes t.dag in
  let colors = Array.make n 0 in
  Array.iter (fun v -> colors.(v) <- 1) t.upper_set;
  colors.(t.upper_mid) <- 1;
  colors.(t.source) <- 1;
  Partition.create ~k:2 colors

(* A layer-wise feasible solution: split both large sets evenly. *)
let two_branch_layerwise t =
  let n = Hyperdag.Dag.num_nodes t.dag in
  let colors = Array.make n 0 in
  let half a =
    Array.iteri (fun i v -> colors.(v) <- (if 2 * i < Array.length a then 1 else 0)) a
  in
  half t.upper_set;
  half t.lower_set;
  colors.(t.source) <- 1;
  colors.(t.lower_first) <- 1;
  colors.(t.upper_mid) <- 0;
  colors.(t.sink) <- 0;
  Partition.create ~k:2 colors

(* Lemma 7.2 / Figure 8: three large blocks (n/6) in one chain and six
   small blocks (n/12) in another; an optimal first bisection separates
   the chains, after which the large side cannot be halved without
   splitting a block, while a direct 4-way partitioning pairs one large
   with one small block per part at O(1) cost. *)
type nine_blocks = {
  hypergraph : Hypergraph.t;
  large : int array array; (* 3 blocks of size 2u *)
  small : int array array; (* 6 blocks of size u *)
  unit_size : int;
}

let nine_blocks ~unit_size =
  if unit_size < 2 then invalid_arg "Counterexamples.nine_blocks: unit >= 2";
  let b = Hypergraph.Builder.create () in
  let large =
    Array.init 3 (fun _ -> Hypergraph.Gadgets.block b ~size:(2 * unit_size))
  in
  let small =
    Array.init 6 (fun _ -> Hypergraph.Gadgets.block b ~size:unit_size)
  in
  (* Chain the large blocks and the small blocks with single edges. *)
  for i = 0 to 1 do
    ignore (Hypergraph.Builder.add_edge b [| large.(i).(0); large.(i + 1).(0) |])
  done;
  for i = 0 to 4 do
    ignore (Hypergraph.Builder.add_edge b [| small.(i).(0); small.(i + 1).(0) |])
  done;
  { hypergraph = Hypergraph.Builder.build b; large; small; unit_size }

(* The O(1)-cost direct 4-way partition: part i < 3 = large i + small i;
   part 3 = small 3, 4, 5. *)
let nine_blocks_direct t =
  let n = Hypergraph.num_nodes t.hypergraph in
  let colors = Array.make n 3 in
  Array.iteri
    (fun i block -> Array.iter (fun v -> colors.(v) <- i) block)
    t.large;
  Array.iteri
    (fun i block -> if i < 3 then Array.iter (fun v -> colors.(v) <- i) block)
    t.small;
  Partition.create ~k:4 colors

(* The first (optimal, cost-0) bisection: large chain vs small chain. *)
let nine_blocks_first_bisection t =
  let n = Hypergraph.num_nodes t.hypergraph in
  let colors = Array.make n 1 in
  Array.iter (Array.iter (fun v -> colors.(v) <- 0)) t.large;
  Partition.create ~k:2 colors

(* Theorem 7.4 / Figure 9: the star construction on which the two-step
   method loses a (b1-1)/b1 * g1 factor.  eps = 0; T = n/k nodes per
   part; all blocks listed in Appendix G.2. *)
type star = {
  hypergraph : Hypergraph.t;
  k : int;
  m : int; (* parallel A <-> B_i edges *)
  t_size : int; (* T = n / k *)
  a : int array;
  b_blocks : int array array; (* k - 1 blocks of size T / (k-1) *)
  c_blocks : int array array; (* k - 2 blocks of size T (k-2)/(k-1) *)
  d : int array;
  e_blocks : int array array; (* k - 3 blocks of size T / (k-1) *)
}

let star ~k ~m ~unit_size =
  if k < 3 then invalid_arg "Counterexamples.star: k >= 3";
  if unit_size < 2 then invalid_arg "Counterexamples.star: unit_size >= 2";
  (* T = (k-1) * unit_size so all block sizes are integers. *)
  let t_size = (k - 1) * unit_size in
  let b = Hypergraph.Builder.create () in
  let a = Hypergraph.Gadgets.block b ~size:t_size in
  let b_blocks =
    Array.init (k - 1) (fun _ -> Hypergraph.Gadgets.block b ~size:unit_size)
  in
  let c_blocks =
    Array.init (k - 2) (fun _ ->
        Hypergraph.Gadgets.block b ~size:((k - 2) * unit_size))
  in
  let d = Hypergraph.Gadgets.block b ~size:unit_size in
  let e_blocks =
    Array.init (max 0 (k - 3)) (fun _ ->
        Hypergraph.Gadgets.block b ~size:unit_size)
  in
  for i = 0 to k - 2 do
    for j = 0 to m - 1 do
      ignore
        (Hypergraph.Builder.add_edge b
           [| a.(j mod t_size); b_blocks.(i).(j mod unit_size) |])
    done
  done;
  for i = 0 to k - 3 do
    ignore (Hypergraph.Builder.add_edge b [| b_blocks.(i).(0); c_blocks.(i).(0) |])
  done;
  ignore (Hypergraph.Builder.add_edge b [| b_blocks.(k - 2).(0); d.(0) |]);
  {
    hypergraph = Hypergraph.Builder.build b;
    k;
    m;
    t_size;
    a;
    b_blocks;
    c_blocks;
    d;
    e_blocks;
  }

(* The regular-metric optimum (Appendix G.2): A alone; B_i with C_i for
   i <= k-2; B_{k-1} with D and all E_i. *)
let star_flat_optimum t =
  let n = Hypergraph.num_nodes t.hypergraph in
  let colors = Array.make n 0 in
  Array.iter (fun v -> colors.(v) <- 0) t.a;
  for i = 0 to t.k - 3 do
    Array.iter (fun v -> colors.(v) <- i + 1) t.b_blocks.(i);
    Array.iter (fun v -> colors.(v) <- i + 1) t.c_blocks.(i)
  done;
  let last = t.k - 1 in
  Array.iter (fun v -> colors.(v) <- last) t.b_blocks.(t.k - 2);
  Array.iter (fun v -> colors.(v) <- last) t.d;
  Array.iter (Array.iter (fun v -> colors.(v) <- last)) t.e_blocks;
  Partition.create ~k:t.k colors

(* The hierarchical optimum: A alone; all B_i (and D... no, D goes with
   C_{k-2}) — parts: A | B_1..B_{k-1} | {C_i, E_i} for i <= k-3 |
   {C_{k-2}, D}. *)
let star_hier_optimum t =
  let n = Hypergraph.num_nodes t.hypergraph in
  let colors = Array.make n 0 in
  Array.iter (fun v -> colors.(v) <- 0) t.a;
  Array.iter (Array.iter (fun v -> colors.(v) <- 1)) t.b_blocks;
  for i = 0 to t.k - 4 do
    Array.iter (fun v -> colors.(v) <- i + 2) t.c_blocks.(i);
    Array.iter (fun v -> colors.(v) <- i + 2) t.e_blocks.(i)
  done;
  let last = t.k - 1 in
  Array.iter (fun v -> colors.(v) <- last) t.c_blocks.(t.k - 3);
  Array.iter (fun v -> colors.(v) <- last) t.d;
  Partition.create ~k:t.k colors

(* Appendix I.1: two-level blocks — the hyperDAG replacement for block
   gadgets.  A first group of b0 generator nodes, a second group of b1
   nodes, and b0 hyperedges each containing one first-group node and the
   whole second group; splitting the second group costs >= b0. *)
type two_level_block = { first : int array; second : int array }

let two_level_block builder ~first_size ~second_size =
  if first_size < 1 || second_size < 1 then
    invalid_arg "Counterexamples.two_level_block: sizes >= 1";
  let first = Hypergraph.Builder.add_nodes builder first_size in
  let second = Hypergraph.Builder.add_nodes builder second_size in
  Array.iter
    (fun f ->
      ignore (Hypergraph.Builder.add_edge builder (Array.append [| f |] second)))
    first;
  { first; second }

(* The nine-block construction as a hyperDAG (Appendix I.1): each block is
   replaced by a two-level block with the sizes of the appendix (first
   group one sixth of the block, second group five sixths), and the chain
   edges run between second groups with the *first* chain member's second
   group providing the generator. *)
type nine_blocks_hyperdag = {
  hypergraph : Hypergraph.t;
  large : two_level_block array;
  small : two_level_block array;
  unit_size : int;
}

let nine_blocks_hyperdag ~unit_size =
  (* unit_size must be divisible by 6 so the appendix's n/36 and n/72
     group sizes are integral at our scale: large = (u/3, 5u/3) doubled;
     we scale to first = unit_size, second = 5 * unit_size for the large
     blocks, and half of that for the small ones. *)
  if unit_size < 2 then
    invalid_arg "Counterexamples.nine_blocks_hyperdag: unit_size >= 2";
  let b = Hypergraph.Builder.create () in
  let large =
    Array.init 3 (fun _ ->
        two_level_block b ~first_size:(2 * unit_size)
          ~second_size:(10 * unit_size))
  in
  let small =
    Array.init 6 (fun _ ->
        two_level_block b ~first_size:unit_size
          ~second_size:(5 * unit_size))
  in
  for i = 0 to 1 do
    ignore
      (Hypergraph.Builder.add_edge b
         [| large.(i).second.(0); large.(i + 1).second.(1) |])
  done;
  for i = 0 to 4 do
    ignore
      (Hypergraph.Builder.add_edge b
         [| small.(i).second.(0); small.(i + 1).second.(1) |])
  done;
  { hypergraph = Hypergraph.Builder.build b; large; small; unit_size }

(* [nine_blocks_direct] on the two-level blocks: part i < 3 = large i +
   small i; part 3 = small 3, 4, 5. *)
let nine_blocks_hyperdag_direct (t : nine_blocks_hyperdag) =
  let colors = Array.make (Hypergraph.num_nodes t.hypergraph) 3 in
  let paint color blk =
    Array.iter (fun v -> colors.(v) <- color) blk.first;
    Array.iter (fun v -> colors.(v) <- color) blk.second
  in
  Array.iteri paint t.large;
  Array.iteri (fun i blk -> if i < 3 then paint i blk) t.small;
  Partition.create ~k:4 colors

(* Appendix B: the Hendrickson-Kolda hypergraph of a DAG puts both the
   predecessors and the successors of u into u's hyperedge, which can
   overestimate real traffic by a Theta(m) factor on a (k-1)-source,
   m-sink bipartite DAG (the hyperDAG model counts it exactly). *)
let hk_hypergraph dag =
  let n = Hyperdag.Dag.num_nodes dag in
  let edges = ref [] in
  for u = n - 1 downto 0 do
    let pins =
      Array.concat
        [ [| u |]; Hyperdag.Dag.preds dag u; Hyperdag.Dag.succs dag u ]
    in
    if Array.length pins > 1 then begin
      let sorted = Array.copy pins in
      Array.sort Int.compare sorted;
      edges := sorted :: !edges
    end
  done;
  Hypergraph.of_edges ~n (Array.of_list !edges)

let bipartite_sources_sinks ~sources ~sinks =
  let edges = ref [] in
  for s = 0 to sources - 1 do
    for t = 0 to sinks - 1 do
      edges := (s, sources + t) :: !edges
    done
  done;
  Hyperdag.Dag.of_edges ~n:(sources + sinks) !edges
