(* Partitioning under per-class balance constraints: the common engine for
   the layer-wise problem (Definition 5.1) and multi-constraint
   partitioning (Definition 6.1).

   Every node belongs to at most one *class* (a layer, or a constraint set
   V_j; class -1 = unconstrained), and each class j has a per-color
   capacity cap.(j).  The solver greedily assigns nodes class by class to
   the color minimizing the incremental connectivity, then hill-climbs
   with single moves that respect every class capacity. *)

type instance = {
  classes : int array; (* node -> class id, or -1 *)
  caps : int array; (* per class: max nodes of one color *)
}

let of_layers ?(variant = Partition.Strict) ~eps ~k layers ~n =
  let classes = Array.make n (-1) in
  Array.iteri
    (fun j layer -> Array.iter (fun v -> classes.(v) <- j) layer)
    layers;
  let caps =
    Array.map
      (fun layer ->
        Partition.capacity ~variant ~eps ~total_weight:(Array.length layer)
          ~k ())
      layers
  in
  { classes; caps }

let of_multi_constraint ~eps ~k mc ~n =
  of_layers ~eps ~k (Partition.Multi_constraint.subsets mc) ~n

(* Per-(class, color) occupancy of a partition. *)
let occupancy t ~k part =
  let classes_count = Array.length t.caps in
  let occ = Array.make (classes_count * k) 0 in
  Array.iteri
    (fun v cls ->
      if cls >= 0 then begin
        let c = Partition.color part v in
        occ.((cls * k) + c) <- occ.((cls * k) + c) + 1
      end)
    t.classes;
  occ

let respects t ~k part =
  let occ = occupancy t ~k part in
  let ok = ref true in
  Array.iteri
    (fun j cap ->
      for c = 0 to k - 1 do
        if occ.((j * k) + c) > cap then ok := false
      done)
    t.caps;
  !ok

(* Greedy construction: nodes in class-major order (unconstrained last),
   each to the feasible color with the cheapest connectivity increment. *)
let greedy rng t hg ~k =
  let n = Hypergraph.num_nodes hg in
  let colors = Array.make n (-1) in
  let classes_count = Array.length t.caps in
  let occ = Array.make (classes_count * k) 0 in
  (* Global fallback capacity so the unconstrained nodes stay balanced. *)
  let global_cap = Support.Util.ceil_div n k + 1 in
  let global = Array.make k 0 in
  let order =
    let by_class = Array.init n Fun.id in
    Support.Rng.shuffle_in_place rng by_class;
    Array.sort
      (fun a b ->
        Int.compare
          (if t.classes.(a) < 0 then max_int else t.classes.(a))
          (if t.classes.(b) < 0 then max_int else t.classes.(b)))
      by_class;
    by_class
  in
  let delta v c =
    (* Connectivity increment of coloring v with c given current colors. *)
    Hypergraph.fold_incident hg v
      (fun acc e ->
        let has_c = ref false and has_any = ref false in
        Hypergraph.iter_pins hg e (fun u ->
            if colors.(u) >= 0 then begin
              has_any := true;
              if colors.(u) = c then has_c := true
            end);
        if !has_any && not !has_c then acc + Hypergraph.edge_weight hg e
        else acc)
      0
  in
  Array.iter
    (fun v ->
      let cls = t.classes.(v) in
      let best = ref (-1) and best_delta = ref max_int in
      for c = 0 to k - 1 do
        let feasible =
          if cls >= 0 then occ.((cls * k) + c) < t.caps.(cls)
          else global.(c) < global_cap
        in
        if feasible then begin
          let d = delta v c in
          if d < !best_delta then begin
            best_delta := d;
            best := c
          end
        end
      done;
      let c = if !best >= 0 then !best else 0 in
      colors.(v) <- c;
      if cls >= 0 then occ.((cls * k) + c) <- occ.((cls * k) + c) + 1
      else global.(c) <- global.(c) + 1)
    order;
  Partition.create ~k colors

(* Hill climbing with single moves that keep every class within its cap,
   at most [max_passes] sweeps over the nodes. *)
let max_passes = 8

let local_search t hg part =
  let k = Partition.k part in
  let counts = Pin_counts.create hg part in
  let occ = occupancy t ~k part in
  let assignment = Partition.assignment part in
  let passes = ref 0 and improved = ref true in
  while !improved && !passes < max_passes do
    incr passes;
    improved := false;
    for v = 0 to Hypergraph.num_nodes hg - 1 do
      let src = assignment.(v) in
      let cls = t.classes.(v) in
      for dst = 0 to k - 1 do
        if dst <> assignment.(v) then begin
          let feasible =
            cls < 0 || occ.((cls * k) + dst) < t.caps.(cls)
          in
          if feasible then begin
            let d =
              Pin_counts.move_delta counts v ~src:assignment.(v) ~dst
            in
            if d < 0 then begin
              let s = assignment.(v) in
              Pin_counts.move counts v ~src:s ~dst;
              assignment.(v) <- dst;
              if cls >= 0 then begin
                occ.((cls * k) + s) <- occ.((cls * k) + s) - 1;
                occ.((cls * k) + dst) <- occ.((cls * k) + dst) + 1
              end;
              improved := true
            end
          end
        end
      done;
      ignore src
    done
  done;
  Pin_counts.cost counts

let solve rng t hg ~k =
  let part = greedy rng t hg ~k in
  ignore (local_search t hg part);
  Audit_gate.checked hg part
