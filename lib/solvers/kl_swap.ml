(* Kernighan-Lin refinement: pairwise swaps of equal-weight boundary nodes
   between two parts, so the balance is preserved *exactly* — the natural
   refinement at eps = 0, where single FM moves are never feasible.

   A pass follows the classic KL discipline: repeatedly apply the best
   available swap *even when its gain is negative*, lock the swapped
   nodes, and finally roll back to the best prefix of the swap sequence.
   The tentative negative swaps are what lets KL escape states where no
   single swap helps (e.g. two perfectly interleaved blocks).

   Swap gains are exact, interactions through shared hyperedges included,
   and come from cached gain rows (the gain-cache design of Refine, see
   arXiv:2106.08696):

   - every boundary node keeps a row of k move deltas, delta(v -> c),
     built when the pass starts;
   - for each outer node v of the pair scan, one walk over the pins of
     v's edges accumulates, per neighbour u, the number of edges u shares
     with v (the tie-breaker) and the exact change of u's move delta once
     v has moved first, computed per shared edge from count(e, c_u),
     count(e, c_v) and λ_e with Pin_counts.edge_delta;
   - a pair then costs O(1): delta(v -> c_u) + delta(u -> c_v) + corr(u),
     where the correction and the shared count are 0 for non-neighbours;
   - after an applied swap, only the counts of the two nodes' edges have
     changed, so only the rows of the unlocked boundary pins on those
     edges are rebuilt.

   The pair order, the (delta, shared edges) tie-break, the locks and the
   rollback are those of evaluating every pair by applying the first
   move, pricing the second and undoing, so the swap sequence is the one
   that exact evaluation gives.  A pass is quadratic in the boundary per
   swap: intended for small-to-medium instances and as a post-pass after
   FM. *)

type config = {
  metric : Partition.metric;
  max_passes : int;
  max_swaps_per_pass : int; (* 0 = no limit *)
}

let default_config =
  { metric = Partition.Connectivity; max_passes = 4; max_swaps_per_pass = 0 }

let c_swaps = Obs.Counter.make "kl.swaps"
let c_swap_evals = Obs.Counter.make "kl.swap_evals"

(* Scratch state of one [refine] call.  The arrays are allocated once and
   reset by stamps (the Workspace discipline): an entry is live only while
   it carries the current stamp of its kind, and every stamp comes from
   one increasing counter, so nothing is cleared between passes. *)
type ctx = {
  cfg : config;
  counts : Pin_counts.t;
  assignment : int array;
  k : int;
  (* Flat CSR / count views for closure-free hot loops. *)
  pins : int array;
  pin_offs : int array;
  inc : int array;
  inc_offs : int array;
  pview : Pin_counts.view;
  plambdas : int array;
  edge_w : int array;
  node_w : int array;
  rows : int array; (* n * k: rows.(v * k + c) = delta(v -> c) *)
  boundary : int array; (* n; the pass's boundary in its first [len] slots *)
  mutable len : int;
  active : int array; (* = pass stamp: boundary node, not yet locked *)
  shared : int array; (* per neighbour of the outer node: shared edges *)
  corr : int array; (* ... and the change of its move delta *)
  seen : int array; (* = walk stamp: the shared/corr entry is live *)
  touched : int array; (* = refresh stamp: row already rebuilt *)
  mutable stamp : int;
}

let create_ctx cfg hg part =
  let n = Hypergraph.num_nodes hg and k = Partition.k part in
  let counts = Pin_counts.create hg part in
  {
    cfg;
    counts;
    assignment = Partition.assignment part;
    k;
    pins = Hypergraph.csr_pins hg;
    pin_offs = Hypergraph.csr_edge_offsets hg;
    inc = Hypergraph.csr_incidence hg;
    inc_offs = Hypergraph.csr_node_offsets hg;
    pview = Pin_counts.view counts;
    plambdas = Pin_counts.raw_lambdas counts;
    edge_w = Hypergraph.csr_edge_weights hg;
    node_w = Hypergraph.csr_node_weights hg;
    rows = Array.make (n * k) 0;
    boundary = Array.make n 0;
    len = 0;
    active = Array.make n 0;
    shared = Array.make n 0;
    corr = Array.make n 0;
    seen = Array.make n 0;
    touched = Array.make n 0;
    stamp = 0;
  }

let next_stamp ctx =
  ctx.stamp <- ctx.stamp + 1;
  ctx.stamp

(* Node x's row: the exact cost change of moving x to each other part,
   summed edge by edge with the per-edge term of Pin_counts.move_delta.
   An edge's counts are read a packed word at a time, each word shifted
   right one field per part. *)
let build_row ctx x =
  let k = ctx.k and rows = ctx.rows in
  let base = x * k and src = ctx.assignment.(x) in
  let { Pin_counts.words; stride; offset; shift; mask; bits; fields } =
    ctx.pview
  in
  let so = offset.(src) and ss = shift.(src) in
  Array.fill rows base k 0;
  for i = ctx.inc_offs.(x) to ctx.inc_offs.(x + 1) - 1 do
    let e = ctx.inc.(i) in
    let row = e * stride in
    let w = ctx.edge_w.(e) and lambda = ctx.plambdas.(e) in
    let src_count = (words.(row + so) lsr ss) land mask in
    for j = 0 to stride - 1 do
      let word = ref words.(row + j) in
      let c0 = j * fields in
      for c = c0 to min k (c0 + fields) - 1 do
        if c <> src then
          rows.(base + c) <-
            rows.(base + c)
            + Pin_counts.edge_delta ctx.cfg.metric ~w ~lambda ~src_count
                ~dst_count:(!word land mask);
        word := !word lsr bits
      done
    done
  done

(* The pins of cut edges in increasing node order, marked active under a
   fresh pass stamp, with their rows built.  Returns the pass stamp. *)
let boundary_nodes ctx =
  let pass = next_stamp ctx in
  Array.iteri
    (fun e lambda ->
      if lambda > 1 then
        for i = ctx.pin_offs.(e) to ctx.pin_offs.(e + 1) - 1 do
          ctx.active.(ctx.pins.(i)) <- pass
        done)
    ctx.plambdas;
  ctx.len <- 0;
  Array.iteri
    (fun v mark ->
      if mark = pass then begin
        ctx.boundary.(ctx.len) <- v;
        ctx.len <- ctx.len + 1;
        build_row ctx v
      end)
    ctx.active;
  pass

(* One walk over the pins of v's edges.  For every other pin u it
   accumulates the edges u shares with v and, when u lies in another
   part, how much u's move delta towards v's part changes once v has
   moved to u's part: on a shared edge v's move takes one pin from c_v to
   c_u and drops λ exactly when v was alone in c_v (c_u holds u, so it
   never rises).  The entries are live under the returned stamp. *)
let walk_neighbours ctx v =
  let walk = next_stamp ctx in
  let metric = ctx.cfg.metric in
  let cv = ctx.assignment.(v) in
  let { Pin_counts.words; stride; offset; shift; mask; _ } = ctx.pview in
  let vo = offset.(cv) and vs = shift.(cv) in
  for i = ctx.inc_offs.(v) to ctx.inc_offs.(v + 1) - 1 do
    let e = ctx.inc.(i) in
    let row = e * stride in
    let w = ctx.edge_w.(e) and lambda = ctx.plambdas.(e) in
    let count_v = (words.(row + vo) lsr vs) land mask in
    let lambda' = if count_v = 1 then lambda - 1 else lambda in
    for j = ctx.pin_offs.(e) to ctx.pin_offs.(e + 1) - 1 do
      let u = ctx.pins.(j) in
      if u <> v then begin
        if ctx.seen.(u) <> walk then begin
          ctx.seen.(u) <- walk;
          ctx.shared.(u) <- 0;
          ctx.corr.(u) <- 0
        end;
        ctx.shared.(u) <- ctx.shared.(u) + 1;
        let cu = ctx.assignment.(u) in
        if cu <> cv then begin
          let count_u = (words.(row + offset.(cu)) lsr shift.(cu)) land mask in
          ctx.corr.(u) <-
            ctx.corr.(u)
            + Pin_counts.edge_delta metric ~w ~lambda:lambda'
                ~src_count:(count_u + 1) ~dst_count:(count_v - 1)
            - Pin_counts.edge_delta metric ~w ~lambda ~src_count:count_u
                ~dst_count:count_v
        end
      end
    done
  done;
  walk

let apply_swap counts assignment v u =
  let cv = assignment.(v) and cu = assignment.(u) in
  Pin_counts.move counts v ~src:cv ~dst:cu;
  assignment.(v) <- cu;
  Pin_counts.move counts u ~src:cu ~dst:cv;
  assignment.(u) <- cv

(* Rebuild, once each under [refresh], the rows of the active pins of x's
   edges. *)
let refresh_rows ctx ~pass ~refresh x =
  for i = ctx.inc_offs.(x) to ctx.inc_offs.(x + 1) - 1 do
    let e = ctx.inc.(i) in
    for j = ctx.pin_offs.(e) to ctx.pin_offs.(e + 1) - 1 do
      let y = ctx.pins.(j) in
      if ctx.active.(y) = pass && ctx.touched.(y) <> refresh then begin
        ctx.touched.(y) <- refresh;
        build_row ctx y
      end
    done
  done

let kl_pass ctx =
  let pass = boundary_nodes ctx in
  let k = ctx.k and len = ctx.len in
  let boundary = ctx.boundary and assignment = ctx.assignment in
  let active = ctx.active and rows = ctx.rows and node_w = ctx.node_w in
  let swaps = ref [] and cum = ref 0 and best_cum = ref 0 in
  let nswaps = ref 0 and best_len = ref 0 in
  let limit =
    if ctx.cfg.max_swaps_per_pass > 0 then ctx.cfg.max_swaps_per_pass
    else len
  in
  (* Local counter shadows, flushed once per pass — the batched-flush
     contract (DOM04): no per-event Obs emission inside the O(len^2)
     evaluation loop. *)
  let evals = ref 0 in
  let continue = ref true in
  while !continue && !nswaps < limit do
    (* Best swap among unlocked equal-weight cross pairs; ties broken
       toward the pair sharing the fewest hyperedges, then toward the
       first pair in scan order.  On a gain plateau, swapping two tightly
       coupled nodes is a structural no-op (e.g. two nodes of the same
       block), so among equal-gain swaps we prefer the loosest pair. *)
    let best_v = ref (-1) and best_u = ref (-1) in
    let best_d = ref 0 and best_shared = ref 0 in
    for i = 0 to len - 1 do
      let v = boundary.(i) in
      if active.(v) = pass then begin
        let cv = assignment.(v) and wv = node_w.(v) in
        (* v's neighbour walk, made at its first candidate pair. *)
        let walk = ref 0 in
        for j = i + 1 to len - 1 do
          let u = boundary.(j) in
          let cu = assignment.(u) in
          if active.(u) = pass && cu <> cv && node_w.(u) = wv then begin
            incr evals;
            if !walk = 0 then walk := walk_neighbours ctx v;
            let linked = ctx.seen.(u) = !walk in
            let d =
              rows.((v * k) + cu)
              + rows.((u * k) + cv)
              + if linked then ctx.corr.(u) else 0
            in
            let s = if linked then ctx.shared.(u) else 0 in
            if
              !best_v < 0 || d < !best_d
              || (d = !best_d && s < !best_shared)
            then begin
              best_v := v;
              best_u := u;
              best_d := d;
              best_shared := s
            end
          end
        done
      end
    done;
    if !best_v < 0 then continue := false
    else begin
      let v = !best_v and u = !best_u in
      apply_swap ctx.counts assignment v u;
      active.(v) <- 0;
      active.(u) <- 0;
      let refresh = next_stamp ctx in
      refresh_rows ctx ~pass ~refresh v;
      refresh_rows ctx ~pass ~refresh u;
      swaps := (v, u) :: !swaps;
      incr nswaps;
      cum := !cum + !best_d;
      if !cum < !best_cum then begin
        best_cum := !cum;
        best_len := !nswaps
      end
    end
  done;
  (* Roll back the swaps after the best prefix (swapping back = same op). *)
  let rec undo l i =
    if i > !best_len then
      match l with
      | (v, u) :: rest ->
          apply_swap ctx.counts assignment v u;
          undo rest (i - 1)
      | [] -> assert false
  in
  undo !swaps !nswaps;
  Obs.Counter.add c_swap_evals !evals;
  Obs.Counter.add c_swaps !nswaps;
  - !best_cum

(* Refine in place by repeated KL passes; returns the final cost.  Part
   weights are preserved exactly. *)
let refine ?(config = default_config) hg part =
 Obs.Span.with_ "kl"
   ~attrs:
     [
       ("n", Obs.Int (Hypergraph.num_nodes hg));
       ("k", Obs.Int (Partition.k part));
     ]
 @@ fun () ->
  let entry = Audit_gate.entry_weights hg part in
  let ctx = create_ctx config hg part in
  let passes = ref 0 and improving = ref true in
  while !improving && !passes < config.max_passes do
    incr passes;
    let gain =
      Obs.Span.with_ "kl.pass"
        ~attrs:[ ("pass", Obs.Int !passes) ]
        (fun () ->
          let gain = kl_pass ctx in
          Obs.Span.attr "gain" (Obs.Int gain);
          gain)
    in
    if gain <= 0 then improving := false
  done;
  let cost = Pin_counts.cost ~metric:config.metric ctx.counts in
  Obs.Span.attr "passes" (Obs.Int !passes);
  Obs.Span.attr "cost" (Obs.Int cost);
  ignore
    (Audit_gate.checked
       ~claimed:{ Analysis_core.Audit_partition.metric = config.metric; cost }
       ?preserved_weights:entry hg part);
  cost
