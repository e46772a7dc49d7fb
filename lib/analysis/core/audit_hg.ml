(* CSR well-formedness (Section 3.1).  The representation invariants of
   Hg.t: pins in range and strictly increasing within each edge, the
   node->edge incidence the exact transpose of the edge->pin lists, pin
   count rho consistent between both views, and positive weights. *)

let rules =
  [
    ("HG-PIN-RANGE", "every pin lies in [0, n) (Sec 3.1, CSR form)");
    ("HG-PIN-SORTED", "pin lists strictly increasing within each edge");
    ( "HG-TRANSPOSE",
      "node->edge incidence is the exact transpose of the pin lists" );
    ("HG-RHO", "rho = sum of |e| = sum of deg(v) (pin-count agreement)");
    ("HG-WEIGHT-POS", "node and edge weights are positive integers");
    ( "HG-EDGE-EMPTY",
      "no empty hyperedges (warning: legal via of_edges, never built)" );
  ]

let audit hg =
  Obs.Span.with_ "audit.hypergraph" @@ fun () ->
  let n = Hypergraph.num_nodes hg and m = Hypergraph.num_edges hg in
  let pins = Hypergraph.csr_pins hg in
  let edge_offsets = Hypergraph.csr_edge_offsets hg in
  let incidence = Hypergraph.csr_incidence hg in
  let node_offsets = Hypergraph.csr_node_offsets hg in
  let ctx = Check.create ~subject:(Printf.sprintf "hypergraph n=%d m=%d" n m) in
  (* Pin range and sortedness of every edge, counting occurrences per node
     as we go; each rule keeps its first offending edge and is evaluated
     once. *)
  let occurrences = Array.make n 0 in
  let pin_total = ref 0 in
  let unranged = ref (-1) and unsorted = ref (-1) and empty = ref (-1) in
  for e = 0 to m - 1 do
    let lo = edge_offsets.(e) and hi = edge_offsets.(e + 1) in
    let prev = ref (-1) in
    let sorted = ref true and in_range = ref true in
    for i = lo to hi - 1 do
      let v = pins.(i) in
      incr pin_total;
      if v < 0 || v >= n then in_range := false
      else begin
        occurrences.(v) <- occurrences.(v) + 1;
        if v <= !prev then sorted := false;
        prev := v
      end
    done;
    if (not !in_range) && !unranged < 0 then unranged := e;
    if (not !sorted) && !unsorted < 0 then unsorted := e;
    if hi - lo <= 0 && !empty < 0 then empty := e
  done;
  Check.rule ctx ~id:"HG-PIN-RANGE" (!unranged < 0) (fun () ->
      Printf.sprintf "edge %d has a pin outside [0, %d)" !unranged n);
  Check.rule ctx ~id:"HG-PIN-SORTED" (!unsorted < 0) (fun () ->
      Printf.sprintf "pins of edge %d are not strictly increasing" !unsorted);
  Check.rule ctx ~severity:Warning ~id:"HG-EDGE-EMPTY" (!empty < 0) (fun () ->
      Printf.sprintf "edge %d is empty" !empty);
  (* Transpose consistency: each node's incident-edge list must contain
     exactly the edges whose pin lists mention it, without duplicates. *)
  let bad_node = ref (-1) in
  for v = 0 to n - 1 do
    let lo = node_offsets.(v) and hi = node_offsets.(v + 1) in
    let prev_edge = ref (-1) and local_ok = ref (hi - lo = occurrences.(v)) in
    for a = lo to hi - 1 do
      let e = incidence.(a) in
      if e <= !prev_edge || e >= m then local_ok := false
      else begin
        prev_edge := e;
        (* Linear membership scan: independent of the binary search in
           [edge_mem], which itself assumes sortedness. *)
        let found = ref false in
        for i = edge_offsets.(e) to edge_offsets.(e + 1) - 1 do
          if pins.(i) = v then found := true
        done;
        if not !found then local_ok := false
      end
    done;
    if (not !local_ok) && !bad_node < 0 then bad_node := v
  done;
  Check.rule ctx ~id:"HG-TRANSPOSE" (!bad_node < 0) (fun () ->
      Printf.sprintf "incidence list of node %d disagrees with the pin lists"
        !bad_node);
  let degree_total = ref 0 in
  for v = 0 to n - 1 do
    degree_total := !degree_total + Hypergraph.node_degree hg v
  done;
  Check.rule ctx ~id:"HG-RHO"
    (Hypergraph.num_pins hg = !pin_total && !pin_total = !degree_total)
    (fun () ->
      Printf.sprintf "rho=%d but sum|e|=%d and sum deg=%d"
        (Hypergraph.num_pins hg) !pin_total !degree_total);
  let weights_ok = ref true in
  for v = 0 to n - 1 do
    if Hypergraph.node_weight hg v < 1 then weights_ok := false
  done;
  for e = 0 to m - 1 do
    if Hypergraph.edge_weight hg e < 1 then weights_ok := false
  done;
  Check.rule ctx ~id:"HG-WEIGHT-POS" !weights_ok (fun () ->
      "a node or edge weight is < 1");
  Check.report ctx
