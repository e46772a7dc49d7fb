(* Core hypergraph type: immutable CSR representation of a hypergraph
   G(V, E) as in Section 3.1 of the paper.  Nodes are 0..n-1, hyperedges
   0..m-1; [pins] concatenates the (sorted) pin lists of all edges, and
   [incidence] concatenates the incident-edge lists of all nodes. *)

type t = {
  n : int;
  node_weight : int array; (* length n *)
  edge_weight : int array; (* length m *)
  edge_offsets : int array; (* length m+1; edge e pins at [off.(e), off.(e+1)) *)
  pins : int array;
  node_offsets : int array; (* length n+1 *)
  incidence : int array;
}

let num_nodes t = t.n
let num_edges t = Array.length t.edge_weight
let num_pins t = Array.length t.pins

let edge_size t e = t.edge_offsets.(e + 1) - t.edge_offsets.(e)
let node_degree t v = t.node_offsets.(v + 1) - t.node_offsets.(v)
let node_weight t v = t.node_weight.(v)
let edge_weight t e = t.edge_weight.(e)

let iter_pins t e f =
  for i = t.edge_offsets.(e) to t.edge_offsets.(e + 1) - 1 do
    f t.pins.(i)
  done

let iter_incident t v f =
  for i = t.node_offsets.(v) to t.node_offsets.(v + 1) - 1 do
    f t.incidence.(i)
  done

let fold_pins t e f init =
  let acc = ref init in
  iter_pins t e (fun v -> acc := f !acc v);
  !acc

let fold_incident t v f init =
  let acc = ref init in
  iter_incident t v (fun e -> acc := f !acc e);
  !acc

let edge_pins t e =
  Array.sub t.pins t.edge_offsets.(e) (edge_size t e)

let incident_edges t v =
  Array.sub t.incidence t.node_offsets.(v) (node_degree t v)

let exists_pin t e p =
  let rec go i =
    i < t.edge_offsets.(e + 1) && (p t.pins.(i) || go (i + 1))
  in
  go t.edge_offsets.(e)

let edge_mem t e v =
  (* Pins are sorted within each edge: binary search. *)
  let lo = ref t.edge_offsets.(e) and hi = ref (t.edge_offsets.(e + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let u = t.pins.(mid) in
    if u = v then found := true
    else if u < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let max_degree t =
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    if node_degree t v > !best then best := node_degree t v
  done;
  !best

let total_node_weight t = Support.Util.sum_array t.node_weight
let total_edge_weight t = Support.Util.sum_array t.edge_weight

let edges t = Array.init (num_edges t) (fun e -> edge_pins t e)

(* Zero-copy CSR and weight views: the refinement and coarsening hot paths
   iterate pins millions of times, and every [iter_pins]/[iter_incident]
   call site whose closure captures per-move state costs one allocation
   per call.  Handing out the live arrays lets those loops run
   allocation-free; callers must treat them as read-only. *)
let csr_pins t = t.pins
let csr_edge_offsets t = t.edge_offsets
let csr_incidence t = t.incidence
let csr_node_offsets t = t.node_offsets
let csr_edge_weights t = t.edge_weight
let csr_node_weights t = t.node_weight

(* Construction ----------------------------------------------------------- *)

(* The one validating CSR builder behind [of_csr] and [of_edges]; [fn]
   names the public entry point in its messages.  Slices are checked in
   edge order, and within a slice pin by pin in sorted order, range before
   duplicate. *)
let csr fn ~n ~node_weight ~edge_weight ~offsets pins =
  let m = Array.length edge_weight in
  if Array.length node_weight <> n then invalid_arg (fn ^ ": node_weight length");
  if Array.length offsets <> m + 1 then invalid_arg (fn ^ ": offsets length");
  if offsets.(0) <> 0 || offsets.(m) <> Array.length pins then
    invalid_arg (fn ^ ": offsets do not span the pins");
  for e = 0 to m - 1 do
    if offsets.(e + 1) < offsets.(e) then invalid_arg (fn ^ ": offsets decrease")
  done;
  for e = 0 to m - 1 do
    let lo = offsets.(e) and hi = offsets.(e + 1) in
    let i = ref (lo + 1) in
    while !i < hi && pins.(!i - 1) < pins.(!i) do
      incr i
    done;
    if !i < hi then Support.Util.sort_int_range pins lo (hi - lo);
    for i = lo to hi - 1 do
      let v = pins.(i) in
      if v < 0 || v >= n then invalid_arg (fn ^ ": pin out of range");
      if i > lo && pins.(i - 1) = v then
        invalid_arg (fn ^ ": duplicate pin within an edge")
    done
  done;
  (* Transpose: count degrees into node_offsets.(v), turn them into each
     node's end offset, then place edges from the last one down so every
     incidence list comes out in increasing edge order and each cursor
     ends on its node's start. *)
  let node_offsets = Array.make (n + 1) 0 in
  Array.iter (fun v -> node_offsets.(v) <- node_offsets.(v) + 1) pins;
  for v = 1 to n - 1 do
    node_offsets.(v) <- node_offsets.(v) + node_offsets.(v - 1)
  done;
  let rho = Array.length pins in
  node_offsets.(n) <- rho;
  let incidence = Array.make rho 0 in
  for e = m - 1 downto 0 do
    for i = offsets.(e) to offsets.(e + 1) - 1 do
      let v = pins.(i) in
      let slot = node_offsets.(v) - 1 in
      node_offsets.(v) <- slot;
      incidence.(slot) <- e
    done
  done;
  { n; node_weight; edge_weight; edge_offsets = offsets; pins; node_offsets; incidence }

let max_nodes = 1 lsl 24

let of_csr ~n ~node_weight ~edge_weight ~offsets pins =
  csr "Hg.of_csr" ~n ~node_weight ~edge_weight ~offsets pins

let of_edges ?node_weights ?edge_weights ~n edge_list =
  let m = Array.length edge_list in
  let node_weight =
    match node_weights with
    | Some w ->
        if Array.length w <> n then invalid_arg "Hg.of_edges: node_weights length";
        Array.copy w
    | None -> Array.make n 1
  in
  let edge_weight =
    match edge_weights with
    | Some w ->
        if Array.length w <> m then invalid_arg "Hg.of_edges: edge_weights length";
        Array.copy w
    | None -> Array.make m 1
  in
  let offsets = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    offsets.(e + 1) <- offsets.(e) + Array.length edge_list.(e)
  done;
  let pins = Array.make offsets.(m) 0 in
  for e = 0 to m - 1 do
    Array.blit edge_list.(e) 0 pins offsets.(e) (Array.length edge_list.(e))
  done;
  csr "Hg.of_edges" ~n ~node_weight ~edge_weight ~offsets pins

let empty n = of_edges ~n [||]

(* Builder ----------------------------------------------------------------- *)

module Builder = struct
  type b = {
    mutable nodes : int; (* next node id *)
    weights : Support.Int_vec.t;
    mutable edges_rev : (int array * int) list; (* pins, weight; reversed *)
    mutable edge_count : int;
  }

  let create () =
    {
      nodes = 0;
      weights = Support.Int_vec.create ();
      edges_rev = [];
      edge_count = 0;
    }

  let add_node ?(weight = 1) b =
    let id = b.nodes in
    b.nodes <- id + 1;
    Support.Int_vec.push b.weights weight;
    id

  let add_nodes ?(weight = 1) b count =
    Array.init count (fun _ -> add_node ~weight b)

  let add_edge ?(weight = 1) b pins =
    if Array.length pins = 0 then invalid_arg "Builder.add_edge: empty edge";
    Array.iter
      (fun v ->
        if v < 0 || v >= b.nodes then
          invalid_arg "Builder.add_edge: unknown node")
      pins;
    let id = b.edge_count in
    b.edge_count <- id + 1;
    b.edges_rev <- (Array.copy pins, weight) :: b.edges_rev;
    id


  let build b =
    let edges = Array.make b.edge_count ([||], 0) in
    List.iteri
      (fun i ew -> edges.(b.edge_count - 1 - i) <- ew)
      b.edges_rev;
    of_edges ~n:b.nodes
      ~node_weights:(Support.Int_vec.to_array b.weights)
      ~edge_weights:(Array.map snd edges)
      (Array.map fst edges)
end

(* Derived graphs ---------------------------------------------------------- *)

let add_isolated_nodes t count =
  let n = t.n + count in
  let node_weights =
    Array.init n (fun v -> if v < t.n then t.node_weight.(v) else 1)
  in
  of_edges ~n ~node_weights ~edge_weights:t.edge_weight (edges t)

(* Induced subgraph in the paper's sense (Appendix B): keep the nodes of
   [keep] and exactly the hyperedges entirely contained in [keep].  Returns
   the subgraph together with the old ids of its nodes and edges. *)
let induced_subgraph t keep =
  let in_set = Array.make t.n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= t.n then invalid_arg "Hg.induced_subgraph: bad node";
      in_set.(v) <- true)
    keep;
  let old_nodes = Array.of_list (List.filter (fun v -> in_set.(v)) (List.init t.n Fun.id)) in
  let new_id = Array.make t.n (-1) in
  Array.iteri (fun i v -> new_id.(v) <- i) old_nodes;
  let kept_edges = ref [] in
  for e = num_edges t - 1 downto 0 do
    let inside = not (exists_pin t e (fun v -> not in_set.(v))) in
    if inside then kept_edges := e :: !kept_edges
  done;
  let old_edges = Array.of_list !kept_edges in
  let sub =
    of_edges ~n:(Array.length old_nodes)
      ~node_weights:(Array.map (fun v -> t.node_weight.(v)) old_nodes)
      ~edge_weights:(Array.map (fun e -> t.edge_weight.(e)) old_edges)
      (Array.map (fun e -> Array.map (fun v -> new_id.(v)) (edge_pins t e)) old_edges)
  in
  (sub, old_nodes, old_edges)

(* The side of a split: the fragments of the edges on [keep] with at
   least 2 pins, in edge order. *)
let restrict t keep =
  let new_id = Array.make t.n (-1) in
  Array.iteri (fun i v -> new_id.(v) <- i) keep;
  let edges = ref [] in
  for e = num_edges t - 1 downto 0 do
    let pins =
      fold_pins t e
        (fun acc v -> if new_id.(v) >= 0 then new_id.(v) :: acc else acc)
        []
    in
    if List.length pins > 1 then
      edges := (Array.of_list pins, t.edge_weight.(e)) :: !edges
  done;
  let kept = Array.of_list !edges in
  of_edges ~n:(Array.length keep)
    ~node_weights:(Array.map (fun v -> t.node_weight.(v)) keep)
    ~edge_weights:(Array.map snd kept) (Array.map fst kept)

(* Contract nodes according to [label : node -> 0..count-1].  Hyperedges are
   mapped through the labeling; pins collapse; edges that become singletons
   are dropped when [drop_singletons]; identical edges are merged with
   weights summed when [merge_identical]. *)
let contract ?(drop_singletons = true) ?(merge_identical = true) t label count =
  if Array.length label <> t.n then invalid_arg "Hg.contract: label length";
  let node_weights = Array.make count 0 in
  for v = 0 to t.n - 1 do
    let l = label.(v) in
    if l < 0 || l >= count then invalid_arg "Hg.contract: label out of range";
    node_weights.(l) <- node_weights.(l) + t.node_weight.(v)
  done;
  (* Mapped pin lists collapse into one flat buffer (each edge a sorted
     slice), and identical edges merge by sorting edge indices with a
     slice-lexicographic comparator and summing weights along equal runs —
     no per-edge arrays, no hashing of structured keys.  The final edge
     order is pins lexicographic, then weight. *)
  let m = num_edges t in
  let mark = Array.make count (-1) in
  let flat = Array.make (num_pins t) 0 in
  let starts = Array.make m 0 in
  let lens = Array.make m 0 in
  let kept_weight = Array.make m 0 in
  let kept = ref 0 in
  let cursor = ref 0 in
  for e = 0 to m - 1 do
    let start = !cursor in
    for i = t.edge_offsets.(e) to t.edge_offsets.(e + 1) - 1 do
      let l = label.(t.pins.(i)) in
      if mark.(l) <> e then begin
        mark.(l) <- e;
        flat.(!cursor) <- l;
        incr cursor
      end
    done;
    let len = !cursor - start in
    if (not drop_singletons) || len > 1 then begin
      Support.Util.sort_int_range flat start len;
      starts.(!kept) <- start;
      lens.(!kept) <- len;
      kept_weight.(!kept) <- t.edge_weight.(e);
      incr kept
    end
    else cursor := start
  done;
  let kept = !kept in
  (* Lexicographic slice order with length as the tie-break prefix rule
     (as Support.Order.int_array), then weight.  Indices it calls equal
     carry equal pins and weight, so the sort's stability is immaterial. *)
  let compare_kept a b =
    let sa = starts.(a) and sb = starts.(b) in
    let la = lens.(a) and lb = lens.(b) in
    let shared = if la < lb then la else lb in
    let i = ref 0 in
    while !i < shared && flat.(sa + !i) = flat.(sb + !i) do
      incr i
    done;
    if !i < shared then Int.compare flat.(sa + !i) flat.(sb + !i)
    else
      let c = Int.compare la lb in
      if c <> 0 then c else Int.compare kept_weight.(a) kept_weight.(b)
  in
  let idx = Array.init kept (fun i -> i) in
  Array.stable_sort compare_kept idx;
  let equal_pins a b =
    let len = lens.(a) in
    len = lens.(b)
    &&
    let sa = starts.(a) and sb = starts.(b) in
    let i = ref 0 in
    while !i < len && flat.(sa + !i) = flat.(sb + !i) do
      incr i
    done;
    !i = len
  in
  (* Compact [idx] to one index per output edge, whose [kept_weight] slot
     takes its run's summed weight, and size the output on the way. *)
  let out = ref 0 and rho = ref 0 in
  let i = ref 0 in
  while !i < kept do
    let first = idx.(!i) in
    incr i;
    if merge_identical then
      while !i < kept && equal_pins first idx.(!i) do
        kept_weight.(first) <- kept_weight.(first) + kept_weight.(idx.(!i));
        incr i
      done;
    idx.(!out) <- first;
    incr out;
    rho := !rho + lens.(first)
  done;
  let out = !out in
  let edge_weight = Array.make out 0 in
  let offsets = Array.make (out + 1) 0 in
  let pins = Array.make !rho 0 in
  for j = 0 to out - 1 do
    let first = idx.(j) in
    edge_weight.(j) <- kept_weight.(first);
    Array.blit flat starts.(first) pins offsets.(j) lens.(first);
    offsets.(j + 1) <- offsets.(j) + lens.(first)
  done;
  of_csr ~n:count ~node_weight:node_weights ~edge_weight ~offsets pins

let connected_components t =
  let dsu = Support.Dsu.create t.n in
  for e = 0 to num_edges t - 1 do
    let first = ref (-1) in
    iter_pins t e (fun v ->
        if !first < 0 then first := v
        else ignore (Support.Dsu.union dsu !first v))
  done;
  Support.Dsu.labeling dsu

let disjoint_union a b =
  let n = a.n + b.n in
  let shift e = Array.map (fun v -> v + a.n) e in
  let edges_a = edges a and edges_b = edges b in
  of_edges ~n
    ~node_weights:(Array.append a.node_weight b.node_weight)
    ~edge_weights:(Array.append a.edge_weight b.edge_weight)
    (Array.append edges_a (Array.map shift edges_b))

let degree_sequence t =
  let d = Array.init t.n (fun v -> node_degree t v) in
  Array.sort Int.compare d;
  d

let pp ppf t =
  Fmt.pf ppf "@[<v>hypergraph: n=%d m=%d rho=%d delta=%d@,"
    (num_nodes t) (num_edges t) (num_pins t) (max_degree t);
  for e = 0 to min (num_edges t) 50 - 1 do
    Fmt.pf ppf "  e%d (w=%d): %a@," e t.edge_weight.(e)
      Fmt.(array ~sep:sp int)
      (edge_pins t e)
  done;
  if num_edges t > 50 then Fmt.pf ppf "  ...@,";
  Fmt.pf ppf "@]"
