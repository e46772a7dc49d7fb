(* Coarsening by heavy-connectivity clustering (first-choice style, as in
   multilevel partitioners like hMETIS/KaHyPar): visit nodes in random
   order and merge each with the neighbour of highest rating

     rating(v, u) = sum over shared edges e of w_e / (|e| - 1),

   subject to a maximum cluster weight that protects balance feasibility at
   the coarse level. *)

type level = {
  coarse : Hypergraph.t;
  label : int array; (* fine node -> coarse node *)
}

(* Iterative leader lookup with full path compression: after a call every
   node on the chain points directly at the root, so adversarial merge
   orders cannot grow chains (the recursive find they replace both risked
   deep recursion and paid O(chain) per lookup). *)
let find leader v =
  let root = ref v in
  while leader.(!root) <> !root do
    root := leader.(!root)
  done;
  let root = !root in
  let c = ref v in
  while leader.(!c) <> root do
    let next = leader.(!c) in
    leader.(!c) <- root;
    c := next
  done;
  root

(* One clustering pass; [(label, cluster_count)].  With [within], nodes
   merge only when they share the given label.  Ratings accumulate in the
   [workspace]'s flat score array with a touched-list reset; a private
   workspace is used when none is given. *)
let cluster ?workspace ?within rng hg ~max_cluster_weight =
  let n = Hypergraph.num_nodes hg in
  let pins = Hypergraph.csr_pins hg in
  let edge_offsets = Hypergraph.csr_edge_offsets hg in
  let incidence = Hypergraph.csr_incidence hg in
  let node_offsets = Hypergraph.csr_node_offsets hg in
  let edge_weight = Hypergraph.csr_edge_weights hg in
  let restricted, part =
    match within with None -> (false, [||]) | Some part -> (true, part)
  in
  let leader = Array.init n (fun v -> v) in
  (* cluster weight, indexed by current leader *)
  let weight = Array.copy (Hypergraph.csr_node_weights hg) in
  let order = Support.Rng.permutation rng n in
  (* Candidate ratings live in a flat score array, reset through the
     touched-candidate list — no per-node hash table, no clearing of
     untouched entries. *)
  let ws = match workspace with Some ws -> ws | None -> Workspace.create () in
  Workspace.ensure ws ~n ~k:1;
  let score = ws.Workspace.score in
  let seen = ws.Workspace.seen in
  let cand = ws.Workspace.cand in
  for o = 0 to n - 1 do
    let v = order.(o) in
    if leader.(v) = v then begin
      let stamp = Workspace.next_stamp ws in
      Support.Int_vec.clear cand;
      for a = node_offsets.(v) to node_offsets.(v + 1) - 1 do
        let e = incidence.(a) in
        let lo = edge_offsets.(e) and hi = edge_offsets.(e + 1) in
        let size = hi - lo in
        if size > 1 && size <= 64 then begin
          let r = float_of_int edge_weight.(e) /. float_of_int (size - 1) in
          for i = lo to hi - 1 do
            let u = pins.(i) in
            let lu = find leader u in
            if lu <> v && ((not restricted) || part.(u) = part.(v)) then begin
              if seen.(lu) <> stamp then begin
                seen.(lu) <- stamp;
                score.(lu) <- 0.0;
                Support.Int_vec.push cand lu
              end;
              score.(lu) <- score.(lu) +. r
            end
          done
        end
      done;
      let best = ref (-1) and best_r = ref 0.0 in
      for c = 0 to Support.Int_vec.length cand - 1 do
        let u = Support.Int_vec.get cand c in
        if
          weight.(u) + weight.(v) <= max_cluster_weight
          && (!best < 0 || score.(u) > !best_r)
        then begin
          best := u;
          best_r := score.(u)
        end
      done;
      if !best >= 0 then begin
        let u = !best in
        leader.(v) <- u;
        weight.(u) <- weight.(u) + weight.(v)
      end
    end
  done;
  (* Compact leaders to consecutive labels. *)
  let label = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    let r = find leader v in
    if label.(r) < 0 then begin
      label.(r) <- !next;
      incr next
    end
  done;
  for v = 0 to n - 1 do
    label.(v) <- label.(find leader v)
  done;
  (label, !next)

let c_levels = Obs.Counter.make "coarsen.levels"
let h_shrink = Obs.Histogram.make "coarsen.shrink"

(* A clustering that keeps more than this share of the nodes is not worth
   a level. *)
let max_shrink = 0.95

let one_level ?workspace ?within rng hg ~max_cluster_weight =
  Obs.Span.with_ "coarsen.level"
    ~attrs:[ ("nodes_in", Obs.Int (Hypergraph.num_nodes hg)) ]
    (fun () ->
      let label, count = cluster ?workspace ?within rng hg ~max_cluster_weight in
      let n = Hypergraph.num_nodes hg in
      if count = n || float_of_int count /. float_of_int n > max_shrink then
        None
      else begin
        let coarse = Hypergraph.contract hg label count in
        Obs.Counter.incr c_levels;
        Obs.Span.attr "nodes_out" (Obs.Int count);
        Obs.Histogram.observe h_shrink
          (float_of_int count /. float_of_int (Hypergraph.num_nodes hg));
        Some { coarse; label }
      end)

(* The labels of [level.coarse]'s nodes: each cluster takes its members'
   label (clusters built [~within] these labels are monochromatic). *)
let carry level labels =
  let coarse = Array.make (Hypergraph.num_nodes level.coarse) 0 in
  Array.iteri (fun fine cl -> coarse.(cl) <- labels.(fine)) level.label;
  coarse

(* Full coarsening hierarchy down to [stop_nodes] nodes (or until clustering
   stalls).  The max cluster weight keeps every coarse node small enough for
   an eps-balanced k-way split to remain possible; [within] labels, carried
   down level by level, confine every cluster to one label. *)
let hierarchy ?workspace ?within rng hg ~k ~stop_nodes =
  Obs.Span.with_ "coarsen"
    ~attrs:
      [
        ("n", Obs.Int (Hypergraph.num_nodes hg));
        ("m", Obs.Int (Hypergraph.num_edges hg));
        ("k", Obs.Int k);
      ]
    (fun () ->
      let total = Hypergraph.total_node_weight hg in
      let max_cluster_weight = max 1 (Support.Util.ceil_div total (4 * k)) in
      let rec go acc current within =
        if Hypergraph.num_nodes current <= stop_nodes then (current, List.rev acc)
        else
          match one_level ?workspace ?within rng current ~max_cluster_weight with
          | None -> (current, List.rev acc)
          | Some level ->
              go (level :: acc) level.coarse (Option.map (carry level) within)
      in
      let coarsest, levels = go [] hg within in
      Obs.Span.attr "levels" (Obs.Int (List.length levels));
      Obs.Span.attr "coarsest_nodes" (Obs.Int (Hypergraph.num_nodes coarsest));
      (coarsest, levels))

(* Project a coarse partition back through one level. *)
let project level coarse_part =
  Partition.create ~k:(Partition.k coarse_part)
    (Array.map
       (fun l -> Partition.color coarse_part l)
       level.label)
