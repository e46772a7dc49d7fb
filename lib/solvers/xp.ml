(* The XP algorithm of Lemma 4.3: decide whether an epsilon-balanced k-way
   partition of cost at most L exists, in time n^f(L).

   Exactly the paper's scheme:
   1. enumerate every "configuration": a set E0 of at most L hyperedges
      assumed cut, plus for each e in E0 a non-empty subset of the k colors
      allowed to appear in e;
   2. charge each configuration its (pessimistic) cost — w_e for cut-net,
      w_e * (|allowed_e| - 1) for connectivity — and discard configurations
      charging more than L (solutions where fewer colors actually appear
      are found in smaller configurations);
   3. delete E0, contract the connected components of the rest (they must
      be monochromatic), intersect the allowed color sets of the incident
      E0 edges per component;
   4. decide by dynamic programming whether the component sizes can be
      packed into k parts of capacity (1+eps)W/k respecting the allowed
      colors (the k-dimensional table of the paper, realized as a hash
      table over load vectors). *)

let component_structure hg e0 =
  let n = Hypergraph.num_nodes hg in
  let dsu = Support.Dsu.create n in
  let in_e0 = Array.make (Hypergraph.num_edges hg) false in
  List.iter (fun e -> in_e0.(e) <- true) e0;
  for e = 0 to Hypergraph.num_edges hg - 1 do
    if not in_e0.(e) then begin
      let first = ref (-1) in
      Hypergraph.iter_pins hg e (fun v ->
          if !first < 0 then first := v
          else ignore (Support.Dsu.union dsu !first v))
    end
  done;
  Support.Dsu.labeling dsu

(* Packing feasibility: components with weights and per-component allowed
   color masks; loads must stay within [cap]. *)
let packable ~k ~cap sizes allowed =
  let h = Array.length sizes in
  let module S = Set.Make (struct
    type t = int array

    let compare = Support.Order.int_array
  end) in
  let start = S.singleton (Array.make k 0) in
  let rec go i states =
    if S.is_empty states then false
    else if i = h then true
    else begin
      let next = ref S.empty in
      S.iter
        (fun loads ->
          for c = 0 to k - 1 do
            if
              allowed.(i) land (1 lsl c) <> 0
              && loads.(c) + sizes.(i) <= cap
            then begin
              let loads' = Array.copy loads in
              loads'.(c) <- loads.(c) + sizes.(i);
              (* Canonicalize symmetric color classes?  Loads are already a
                 minimal state; dedup via the set. *)
              next := S.add loads' !next
            end
          done)
        states;
      go (i + 1) !next
    end
  in
  go 0 start

(* Check one configuration; returns a witness partition if feasible. *)
let check_configuration ?(metric = Partition.Connectivity)
    ?(variant = Partition.Strict) ~eps hg ~k ~cost_limit e0 allowed_of_edge =
  let config_cost =
    List.fold_left
      (fun acc e ->
        let w = Hypergraph.edge_weight hg e in
        let colors =
          match metric with
          | Partition.Cut_net -> 1
          | Partition.Connectivity ->
              let mask = allowed_of_edge e in
              let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1) in
              popcount mask - 1
        in
        acc + (w * colors))
      0 e0
  in
  if config_cost > cost_limit then None
  else begin
    let label, count = component_structure hg e0 in
    let n = Hypergraph.num_nodes hg in
    let sizes = Array.make count 0 in
    for v = 0 to n - 1 do
      sizes.(label.(v)) <- sizes.(label.(v)) + Hypergraph.node_weight hg v
    done;
    let full_mask = (1 lsl k) - 1 in
    let allowed = Array.make count full_mask in
    List.iter
      (fun e ->
        let mask = allowed_of_edge e in
        Hypergraph.iter_pins hg e (fun v ->
            allowed.(label.(v)) <- allowed.(label.(v)) land mask))
      e0;
    if Array.exists (fun mask -> mask = 0) allowed then None
    else begin
      let cap =
        Partition.capacity ~variant ~eps
          ~total_weight:(Hypergraph.total_node_weight hg)
          ~k ()
      in
      if not (packable ~k ~cap sizes allowed) then None
      else begin
        (* Rebuild one concrete packing for the witness. *)
        let rec search i loads acc =
          if i = Array.length sizes then Some (List.rev acc)
          else begin
            let rec try_color c =
              if c >= k then None
              else if
                allowed.(i) land (1 lsl c) <> 0 && loads.(c) + sizes.(i) <= cap
              then begin
                loads.(c) <- loads.(c) + sizes.(i);
                match search (i + 1) loads (c :: acc) with
                | Some _ as r -> r
                | None ->
                    loads.(c) <- loads.(c) - sizes.(i);
                    try_color (c + 1)
              end
              else try_color (c + 1)
            in
            try_color 0
          end
        in
        match search 0 (Array.make k 0) [] with
        | None -> None (* packable said yes; greedy witness search is complete *)
        | Some comp_colors ->
            let comp_colors = Array.of_list comp_colors in
            let part =
              Partition.create ~k
                (Array.init n (fun v -> comp_colors.(label.(v))))
            in
            Some part
      end
    end
  end

(* Main entry: is there an eps-balanced k-way partition of cost <= L? *)
let decision ?(metric = Partition.Connectivity) ?(variant = Partition.Strict)
    ?(eps = 0.0) hg ~k ~cost_limit =
  let m = Hypergraph.num_edges hg in
  let witness = ref None in
  let full_mask = (1 lsl k) - 1 in
  (* Masks with at least 2 colors; single-color masks are equivalent to the
     configuration without the edge (pessimistic cost would overcharge). *)
  let masks =
    List.filter
      (fun mask ->
        let rec pop m = if m = 0 then 0 else (m land 1) + pop (m lsr 1) in
        pop mask >= 2)
      (Support.Util.list_init full_mask (fun i -> i + 1))
  in
  (* Subsets of edges of size 0..min(L, m) (cost >= 1 per cut edge for both
     metrics with weights >= 1). *)
  let found = ref false in
  let max_cut = min cost_limit m in
  let size = ref 0 in
  while (not !found) && !size <= max_cut do
    Support.Util.iter_subsets ~n:m ~k:!size (fun subset ->
        if not !found then begin
          let e0 = Array.to_list subset in
          let mask_assignment = Array.make !size full_mask in
          let rec assign_masks i =
            if !found then ()
            else if i = !size then begin
              let allowed_of_edge e =
                let rec idx j =
                  if subset.(j) = e then j else idx (j + 1)
                in
                mask_assignment.(idx 0)
              in
              match
                check_configuration ~metric ~variant ~eps hg ~k ~cost_limit e0
                  allowed_of_edge
              with
              | Some part -> begin
                  found := true;
                  witness := Some part
                end
              | None -> ()
            end
            else
              List.iter
                (fun mask ->
                  if not !found then begin
                    mask_assignment.(i) <- mask;
                    assign_masks (i + 1)
                  end)
                masks
          in
          assign_masks 0
        end);
    incr size
  done;
  (match !witness with
  | Some part ->
      ignore
        (Audit_gate.checked ~eps ~variant
           ~bound:{ Analysis_core.Audit_partition.metric; cost = cost_limit }
           hg part)
  | None -> ());
  !witness

(* Multi-constraint variant (second half of Lemma 6.2, Appendix D.2): the
   packing DP tracks one load per (constraint, color) pair instead of one
   per color.  Components carry their intersection size with every
   constraint class. *)
let packable_multi ~k ~caps intersections allowed =
  let h = Array.length intersections in
  let c = Array.length caps in
  let module S = Set.Make (struct
    type t = int array

    let compare = Support.Order.int_array
  end) in
  let start = S.singleton (Array.make (c * k) 0) in
  let rec go i states =
    if S.is_empty states then false
    else if i = h then true
    else begin
      let next = ref S.empty in
      S.iter
        (fun loads ->
          for color = 0 to k - 1 do
            if allowed.(i) land (1 lsl color) <> 0 then begin
              let ok = ref true in
              for j = 0 to c - 1 do
                if
                  loads.((j * k) + color) + intersections.(i).(j) > caps.(j)
                then ok := false
              done;
              if !ok then begin
                let loads' = Array.copy loads in
                for j = 0 to c - 1 do
                  loads'.((j * k) + color) <-
                    loads'.((j * k) + color) + intersections.(i).(j)
                done;
                next := S.add loads' !next
              end
            end
          done)
        states;
      go (i + 1) !next
    end
  in
  go 0 start

(* Decision for the multi-constraint problem (Definition 6.1): connectivity
   cost <= L with every class V_j eps-balanced separately. *)
let decision_multi ?(variant = Partition.Strict) ?(eps = 0.0) hg ~k
    ~constraints ~cost_limit =
  let m = Hypergraph.num_edges hg in
  let n = Hypergraph.num_nodes hg in
  let subsets = Partition.Multi_constraint.subsets constraints in
  let c = Array.length subsets in
  let caps =
    Array.map
      (fun subset ->
        Partition.capacity ~variant ~eps ~total_weight:(Array.length subset)
          ~k ())
      subsets
  in
  let class_of = Array.make n (-1) in
  Array.iteri
    (fun j subset -> Array.iter (fun v -> class_of.(v) <- j) subset)
    subsets;
  let full_mask = (1 lsl k) - 1 in
  let masks =
    List.filter
      (fun mask ->
        let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
        pop mask >= 2)
      (Support.Util.list_init full_mask (fun i -> i + 1))
  in
  let found = ref None in
  let check_config subset mask_assignment =
    let e0 = Array.to_list subset in
    let config_cost =
      List.fold_left
        (fun acc e ->
          let w = Hypergraph.edge_weight hg e in
          let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
          let idx =
            let rec find j = if subset.(j) = e then j else find (j + 1) in
            find 0
          in
          acc + (w * (pop mask_assignment.(idx) - 1)))
        0 e0
    in
    if config_cost > cost_limit then ()
    else begin
      let label, count = component_structure hg e0 in
      let allowed = Array.make count full_mask in
      List.iter
        (fun e ->
          let idx =
            let rec find j = if subset.(j) = e then j else find (j + 1) in
            find 0
          in
          Hypergraph.iter_pins hg e (fun v ->
              allowed.(label.(v)) <-
                allowed.(label.(v)) land mask_assignment.(idx)))
        e0;
      if not (Array.exists (fun x -> x = 0) allowed) then begin
        let intersections = Array.make_matrix count c 0 in
        for v = 0 to n - 1 do
          if class_of.(v) >= 0 then
            intersections.(label.(v)).(class_of.(v)) <-
              intersections.(label.(v)).(class_of.(v)) + 1
        done;
        if packable_multi ~k ~caps intersections allowed then begin
          (* Rebuild a witness greedily. *)
          let loads = Array.make (c * k) 0 in
          let comp_color = Array.make count (-1) in
          let rec assign i =
            if i = count then true
            else begin
              let rec try_color color =
                if color >= k then false
                else if allowed.(i) land (1 lsl color) = 0 then
                  try_color (color + 1)
                else begin
                  let fits = ref true in
                  for j = 0 to c - 1 do
                    if
                      loads.((j * k) + color) + intersections.(i).(j)
                      > caps.(j)
                    then fits := false
                  done;
                  if !fits then begin
                    for j = 0 to c - 1 do
                      loads.((j * k) + color) <-
                        loads.((j * k) + color) + intersections.(i).(j)
                    done;
                    comp_color.(i) <- color;
                    if assign (i + 1) then true
                    else begin
                      for j = 0 to c - 1 do
                        loads.((j * k) + color) <-
                          loads.((j * k) + color) - intersections.(i).(j)
                      done;
                      comp_color.(i) <- -1;
                      try_color (color + 1)
                    end
                  end
                  else try_color (color + 1)
                end
              in
              try_color 0
            end
          in
          if assign 0 then
            found :=
              Some
                (Partition.create ~k
                   (Array.init n (fun v -> comp_color.(label.(v)))))
        end
      end
    end
  in
  let max_cut = min cost_limit m in
  let size = ref 0 in
  while !found = None && !size <= max_cut do
    Support.Util.iter_subsets ~n:m ~k:!size (fun subset ->
        if !found = None then begin
          let mask_assignment = Array.make !size full_mask in
          let rec assign_masks i =
            if !found <> None then ()
            else if i = !size then check_config subset mask_assignment
            else
              List.iter
                (fun mask ->
                  if !found = None then begin
                    mask_assignment.(i) <- mask;
                    assign_masks (i + 1)
                  end)
                masks
          in
          assign_masks 0
        end);
    incr size
  done;
  (match !found with
  | Some part ->
      ignore
        (Audit_gate.checked ~variant ~constraints ~constraints_eps:eps
           ~bound:
             {
               Analysis_core.Audit_partition.metric = Partition.Connectivity;
               cost = cost_limit;
             }
           hg part)
  | None -> ());
  !found

(* Optimize by increasing L; [limit] caps the search. *)
let optimum ?metric ?eps hg ~k ~limit =
  let rec go l =
    if l > limit then None
    else
      match decision ?metric ?eps hg ~k ~cost_limit:l with
      | Some part -> Some (l, part)
      | None -> go (l + 1)
  in
  go 0
