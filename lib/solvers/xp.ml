(* The XP algorithm of Lemma 4.3: decide whether an epsilon-balanced k-way
   partition of cost at most L exists, in time n^f(L).

   Exactly the paper's scheme:
   1. enumerate every "configuration": a set E0 of at most L hyperedges
      assumed cut, plus for each e in E0 a subset of at least two of the k
      colors allowed to appear in e (one color is the configuration
      without e);
   2. charge each configuration its (pessimistic) cost — w_e for cut-net,
      w_e * (|allowed_e| - 1) for connectivity — and discard configurations
      charging more than L (solutions where fewer colors actually appear
      are found in smaller configurations);
   3. delete E0, contract the connected components of the rest (they must
      be monochromatic), intersect the allowed color sets of the incident
      E0 edges per component;
   4. decide by dynamic programming whether the components can be packed
      into the k parts respecting the allowed colors (the k-dimensional
      table of the paper, realized as a set of load vectors).

   Loads are kept per (class, color).  The standard problem is one class
   holding every node, counted by weight under (1+eps)W/k; the
   multi-constraint problem of Lemma 6.2 (Appendix D.2) has one class per
   constraint subset, counted by node under (1+eps)|V_j|/k. *)

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

let component_structure hg in_e0 =
  let n = Hypergraph.num_nodes hg in
  let dsu = Support.Dsu.create n in
  for e = 0 to Hypergraph.num_edges hg - 1 do
    if not in_e0.(e) then begin
      let first = ref (-1) in
      Hypergraph.iter_pins hg e (fun v ->
          if !first < 0 then first := v
          else ignore (Support.Dsu.union dsu !first v))
    end
  done;
  Support.Dsu.labeling dsu

(* Loads are indexed by (class j, color c) at j * k + c; a component adds
   [load.(j)] to class j's load in its color. *)
let fits ~k ~caps state load color =
  let rec go j =
    j = Array.length caps
    || (state.((j * k) + color) + load.(j) <= caps.(j) && go (j + 1))
  in
  go 0

let add ~k state load color sign =
  Array.iteri
    (fun j l -> state.((j * k) + color) <- state.((j * k) + color) + (sign * l))
    load

(* Packing feasibility: whether the components, with per-class [loads] and
   allowed color masks, fit the classes' per-part [caps]. *)
let packable ~k ~caps loads allowed =
  let module S = Set.Make (struct
    type t = int array

    let compare = Support.Order.int_array
  end) in
  let rec go i states =
    if S.is_empty states then false
    else if i = Array.length loads then true
    else begin
      let next = ref S.empty in
      S.iter
        (fun state ->
          for color = 0 to k - 1 do
            if
              allowed.(i) land (1 lsl color) <> 0
              && fits ~k ~caps state loads.(i) color
            then begin
              let state' = Array.copy state in
              add ~k state' loads.(i) color 1;
              next := S.add state' !next
            end
          done)
        states;
      go (i + 1) !next
    end
  in
  go 0 (S.singleton (Array.make (Array.length caps * k) 0))

(* One packing: backtracking over the components in order and the colors
   in increasing order.  It is complete, so it succeeds whenever
   [packable] does. *)
let witness ~k ~caps loads allowed =
  let state = Array.make (Array.length caps * k) 0 in
  let color_of = Array.make (Array.length loads) (-1) in
  let rec place i =
    if i = Array.length loads then true
    else begin
      let rec try_color color =
        if color >= k then false
        else if
          allowed.(i) land (1 lsl color) <> 0
          && fits ~k ~caps state loads.(i) color
        then begin
          add ~k state loads.(i) color 1;
          color_of.(i) <- color;
          place (i + 1)
          || begin
               add ~k state loads.(i) color (-1);
               try_color (color + 1)
             end
        end
        else try_color (color + 1)
      in
      try_color 0
    end
  in
  if place 0 then Some color_of else None

(* The configuration enumerator: the first witness over edge subsets of
   size 0, 1, ..., min(L, m) (each cut edge costs at least 1), each with
   every assignment of masks.  [class_of v] is v's class (or -1) and
   [units v] what it adds to that class's load. *)
let enumerate ~metric hg ~k ~cost_limit ~class_of ~units ~caps =
  let n = Hypergraph.num_nodes hg in
  let m = Hypergraph.num_edges hg in
  let classes = Array.length caps in
  let full_mask = (1 lsl k) - 1 in
  let masks =
    List.filter
      (fun mask -> popcount mask >= 2)
      (Support.Util.list_init full_mask (fun i -> i + 1))
  in
  let in_e0 = Array.make m false in
  let check subset mask_of =
    let config_cost = ref 0 in
    Array.iteri
      (fun j e ->
        let colors =
          match metric with
          | Partition.Cut_net -> 1
          | Partition.Connectivity -> popcount mask_of.(j) - 1
        in
        config_cost := !config_cost + (Hypergraph.edge_weight hg e * colors))
      subset;
    if !config_cost > cost_limit then None
    else begin
      Array.iter (fun e -> in_e0.(e) <- true) subset;
      let label, count = component_structure hg in_e0 in
      Array.iter (fun e -> in_e0.(e) <- false) subset;
      let allowed = Array.make count full_mask in
      Array.iteri
        (fun j e ->
          Hypergraph.iter_pins hg e (fun v ->
              allowed.(label.(v)) <- allowed.(label.(v)) land mask_of.(j)))
        subset;
      if Array.exists (fun mask -> mask = 0) allowed then None
      else begin
        let loads = Array.make_matrix count classes 0 in
        for v = 0 to n - 1 do
          let j = class_of v in
          if j >= 0 then
            loads.(label.(v)).(j) <- loads.(label.(v)).(j) + units v
        done;
        if not (packable ~k ~caps loads allowed) then None
        else
          Option.map
            (fun color_of ->
              Partition.create ~k (Array.init n (fun v -> color_of.(label.(v)))))
            (witness ~k ~caps loads allowed)
      end
    end
  in
  let found = ref None in
  let size = ref 0 in
  while Option.is_none !found && !size <= min cost_limit m do
    Support.Util.iter_subsets ~n:m ~k:!size (fun subset ->
        let mask_of = Array.make !size full_mask in
        let rec assign_masks i =
          if Option.is_some !found then ()
          else if i = !size then found := check subset mask_of
          else
            List.iter
              (fun mask ->
                mask_of.(i) <- mask;
                assign_masks (i + 1))
              masks
        in
        assign_masks 0);
    incr size
  done;
  !found

(* Main entry: is there an eps-balanced k-way partition of cost <= L? *)
let decision ?(metric = Partition.Connectivity) ?(variant = Partition.Strict)
    ?(eps = 0.0) hg ~k ~cost_limit =
  let cap =
    Partition.capacity ~variant ~eps
      ~total_weight:(Hypergraph.total_node_weight hg)
      ~k ()
  in
  let witness =
    enumerate ~metric hg ~k ~cost_limit
      ~class_of:(fun _ -> 0)
      ~units:(Hypergraph.node_weight hg) ~caps:[| cap |]
  in
  (match witness with
  | Some part ->
      ignore
        (Audit_gate.checked ~eps ~variant
           ~bound:{ Analysis_core.Audit_partition.metric; cost = cost_limit }
           hg part)
  | None -> ());
  witness

(* Decision for the multi-constraint problem (Definition 6.1): connectivity
   cost <= L with every class V_j eps-balanced separately. *)
let decision_multi ?(variant = Partition.Strict) ?(eps = 0.0) hg ~k
    ~constraints ~cost_limit =
  let subsets = Partition.Multi_constraint.subsets constraints in
  let class_of = Array.make (Hypergraph.num_nodes hg) (-1) in
  Array.iteri
    (fun j subset -> Array.iter (fun v -> class_of.(v) <- j) subset)
    subsets;
  let caps =
    Array.map
      (fun subset ->
        Partition.capacity ~variant ~eps ~total_weight:(Array.length subset)
          ~k ())
      subsets
  in
  let witness =
    enumerate ~metric:Partition.Connectivity hg ~k ~cost_limit
      ~class_of:(Array.get class_of)
      ~units:(fun _ -> 1)
      ~caps
  in
  (match witness with
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
  witness

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
