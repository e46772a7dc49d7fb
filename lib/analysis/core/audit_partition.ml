(* Partition audit (Definitions 3.1, 5.1, 6.1 and the Section 3.1 cost
   metrics), recomputed from first principles.  Deliberately avoids
   Partition.lambda / Partition.cost / Partition.capacity: the point is to
   catch bugs in exactly that code. *)

let rules =
  [
    ("PART-SHAPE", "assignment has length n with colors in [0, k) (Sec 3.1)");
    ( "PART-BALANCE",
      "every part weight <= (1+eps) * W / k, floored or ceiled per variant \
       (Def 3.1)" );
    ( "PART-COST",
      "claimed objective equals the independently recomputed cost (Sec 3.1)" );
    ( "PART-COST-BOUND",
      "recomputed cost is within a promised upper bound (decision-procedure \
       witnesses, Lemma 4.3)" );
    ( "PART-WEIGHTS-PRESERVED",
      "refinement preserved the entry part weights exactly (the eps = 0 \
       swap-refinement invariant)" );
    ( "PART-METRIC-SANDWICH",
      "cut-net <= connectivity <= (k-1) * cut-net (Sec 3.1)" );
    ("PART-LAYER", "every layer is eps-balanced separately (Def 5.1)");
    ( "PART-MC-DISJOINT",
      "multi-constraint subsets are pairwise disjoint (Def 6.1)" );
    ( "PART-MC-BALANCE",
      "|P_i inter V_j| <= (1+eps) * |V_j| / k for all i, j (Def 6.1)" );
  ]

(* Definition 3.1 capacity, restated here rather than calling
   Part.capacity.  No part can outweigh W, so a bound of W or more is W:
   the clamp also keeps an infinite or huge eps out of [int_of_float],
   which is unspecified beyond the int range. *)
let def31_capacity ~variant ~eps ~total_weight ~k =
  let exact = (1.0 +. eps) *. float_of_int total_weight /. float_of_int k in
  if exact >= float_of_int total_weight then total_weight
  else
    match (variant : Partition.balance) with
    | Strict -> int_of_float (floor (exact +. 1e-9))
    | Relaxed -> int_of_float (ceil (exact -. 1e-9))

(* Cut-net and connectivity costs from one lambda_e per edge, counted by
   sorting a copy of the edge's pin colors: no scratch marks, no stamps.
   An empty edge has lambda 0. *)
let recompute_costs hg assignment =
  let pins = Hypergraph.csr_pins hg in
  let offsets = Hypergraph.csr_edge_offsets hg in
  let m = Hypergraph.num_edges hg in
  let widest = ref 0 in
  for e = 0 to m - 1 do
    widest := max !widest (offsets.(e + 1) - offsets.(e))
  done;
  let colors = Array.make !widest 0 in
  let cut = ref 0 and conn = ref 0 in
  for e = 0 to m - 1 do
    let lo = offsets.(e) in
    let size = offsets.(e + 1) - lo in
    for i = 0 to size - 1 do
      colors.(i) <- assignment.(pins.(lo + i))
    done;
    Support.Util.sort_int_range colors 0 size;
    let lambda = ref (min size 1) in
    for i = 1 to size - 1 do
      if colors.(i) <> colors.(i - 1) then incr lambda
    done;
    let w = Hypergraph.edge_weight hg e in
    if !lambda > 1 then cut := !cut + w;
    conn := !conn + (w * (!lambda - 1))
  done;
  (!cut, !conn)

let recompute_cost metric hg part =
  let cut, conn = recompute_costs hg (Partition.assignment part) in
  match (metric : Partition.metric) with Cut_net -> cut | Connectivity -> conn

type claim = { metric : Partition.metric; cost : int }

let metric_name : Partition.metric -> string = function
  | Cut_net -> "cut-net"
  | Connectivity -> "connectivity"

let audit ?eps ?(variant = Partition.Strict) ?claimed ?bound ?preserved_weights
    ?layers ?constraints ?constraints_eps hg part =
  Obs.Span.with_ "audit.partition" @@ fun () ->
  (* The multi-constraint checks run under their own eps when given: a
     Definition 6.1 instance bounds each class separately without implying
     the global Definition 3.1 balance. *)
  let mc_eps = match constraints_eps with Some _ -> constraints_eps | None -> eps in
  let n = Hypergraph.num_nodes hg in
  let k = Partition.k part in
  let assignment = Partition.assignment part in
  let ctx =
    Check.create ~subject:(Printf.sprintf "partition k=%d of n=%d" k n)
  in
  let shape_ok =
    Array.length assignment = n
    && k >= 1
    && Array.for_all (fun c -> c >= 0 && c < k) assignment
  in
  Check.rule ctx ~id:"PART-SHAPE" shape_ok (fun () ->
      Printf.sprintf "expected %d colors in [0, %d), got %d entries" n k
        (Array.length assignment));
  if shape_ok then begin
    (* Balance (Definition 3.1). *)
    (match eps with
    | None -> ()
    | Some eps ->
        let weights = Array.make k 0 in
        let total_weight = ref 0 in
        for v = 0 to n - 1 do
          let w = Hypergraph.node_weight hg v in
          weights.(assignment.(v)) <- weights.(assignment.(v)) + w;
          total_weight := !total_weight + w
        done;
        let cap =
          def31_capacity ~variant ~eps ~total_weight:!total_weight ~k
        in
        let heaviest = Array.fold_left max 0 weights in
        Check.rule ctx ~id:"PART-BALANCE" (heaviest <= cap) (fun () ->
            Printf.sprintf
              "heaviest part weighs %d > capacity %d ((1+%g) * %d / %d)"
              heaviest cap eps !total_weight k));
    (* Cost cross-check and the metric sandwich. *)
    let cut, conn = recompute_costs hg assignment in
    (match claimed with
    | None -> ()
    | Some { metric; cost } ->
        let actual = match metric with Cut_net -> cut | Connectivity -> conn in
        Check.rule ctx ~id:"PART-COST" (cost = actual) (fun () ->
            Printf.sprintf "claimed %s cost %d, recomputed %d"
              (metric_name metric) cost actual));
    (match bound with
    | None -> ()
    | Some { metric; cost } ->
        let actual = match metric with Cut_net -> cut | Connectivity -> conn in
        Check.rule ctx ~id:"PART-COST-BOUND" (actual <= cost) (fun () ->
            Printf.sprintf "recomputed %s cost %d exceeds the promised bound %d"
              (metric_name metric) actual cost));
    (match preserved_weights with
    | None -> ()
    | Some before ->
        let now = Array.make k 0 in
        for v = 0 to n - 1 do
          now.(assignment.(v)) <- now.(assignment.(v)) + Hypergraph.node_weight hg v
        done;
        Check.rule ctx ~id:"PART-WEIGHTS-PRESERVED" (before = now) (fun () ->
            "part weights changed during a weight-preserving refinement"));
    Check.rule ctx ~id:"PART-METRIC-SANDWICH"
      (cut <= conn && conn <= (k - 1) * cut)
      (fun () ->
        Printf.sprintf "cut-net %d, connectivity %d violate the sandwich" cut
          conn);
    (* Layer-wise balance (Definition 5.1). *)
    (match (layers, eps) with
    | Some layers, Some eps ->
        Array.iteri
          (fun j layer ->
            let counts = Array.make k 0 in
            Array.iter
              (fun v -> counts.(assignment.(v)) <- counts.(assignment.(v)) + 1)
              layer;
            let cap =
              def31_capacity ~variant ~eps
                ~total_weight:(Array.length layer) ~k
            in
            let worst = Array.fold_left max 0 counts in
            Check.rule ctx ~id:"PART-LAYER" (worst <= cap) (fun () ->
                Printf.sprintf
                  "layer %d (size %d): a color holds %d > capacity %d" j
                  (Array.length layer) worst cap))
          layers
    | _ -> ());
    (* Multi-constraint balance (Definition 6.1). *)
    match (constraints, mc_eps) with
    | Some mc, Some eps ->
        let subsets = Partition.Multi_constraint.subsets mc in
        let seen = Array.make n false in
        let disjoint = ref true in
        Array.iter
          (Array.iter (fun v ->
               if v >= 0 && v < n then
                 if seen.(v) then disjoint := false else seen.(v) <- true))
          subsets;
        Check.rule ctx ~id:"PART-MC-DISJOINT" !disjoint (fun () ->
            "a node appears in two constraint subsets");
        Array.iteri
          (fun j subset ->
            let counts = Array.make k 0 in
            Array.iter
              (fun v -> counts.(assignment.(v)) <- counts.(assignment.(v)) + 1)
              subset;
            let cap =
              def31_capacity ~variant ~eps
                ~total_weight:(Array.length subset) ~k
            in
            let worst = Array.fold_left max 0 counts in
            Check.rule ctx ~id:"PART-MC-BALANCE" (worst <= cap) (fun () ->
                Printf.sprintf
                  "constraint %d (size %d): a color holds %d > capacity %d" j
                  (Array.length subset) worst cap))
          subsets
    | _ -> ()
  end;
  Check.report ctx
