(* FM-style k-way refinement with gain buckets, node locking and rollback
   to the best prefix of the move sequence.  Works for any k >= 2 and both
   cost metrics; for k = 2 it is classic Fiduccia-Mattheyses.

   The hot path is boundary-driven with an incrementally maintained gain
   cache (the design of production multilevel partitioners, see
   arXiv:2106.08696):

   - Only nodes incident to a cut edge (λ_e >= 2) are seeded into the
     bucket queue; interior nodes cannot improve the cost and join the
     queue lazily when a neighbouring move makes them boundary.
   - Each node carries a cached gain row.  Under the connectivity metric
     the row is the exact decomposition  delta(v -> q) = penalty(v, q) -
     benefit(v)  with  benefit(v) = Σ_{e ∋ v} w_e·[count(e, part v) = 1]
     and  penalty(v, q) = Σ_{e ∋ v} w_e·[count(e, q) = 0].  A row is built
     as  penalty(v, q) = W(v) - Σ_{e ∋ v, q ∈ Λ(e)} w_e,  W(v) being v's
     incident edge weight and Λ(e) the parts holding a pin of e, so the
     work is proportional to the parts each edge spans: Λ(e) comes from
     the pins of an edge with fewer than k of them, else from its packed
     count words (non-empty fields).  Under cut-net the same split holds
     with  benefit(v) = -Σ w_e  over the uncut edges v would cut
     (λ(e) = 1, count(e, src) >= 2)  and  penalty(v, q) = -Σ w_e  over
     the edges v alone keeps cut (λ(e) = 2, count(e, src) = 1) whose other
     part is q, also built in one walk over v's edges.
   - A move walks the moved node's edges once ([apply_move]).  Per edge it
     updates the counts and λ, then detects the four pin-count boundary
     crossings (count(e, src) reaching 1/0, count(e, dst) leaving 0/1 —
     exactly the events that can flip one of the indicator terms) and, if
     any fired, makes one pass over the edge's pins that applies them all:
     row patches under connectivity, invalidations under cut-net (touched
     neighbours recompute once instead of at every pop), activation
     touches in pin order.
   - Valid rows stay exact through a pass's rollback: a short suffix is
     replayed through the same walk, a long one bulk-invalidates, and a
     bulk rollback to the pass start copies back the rows the pass seeded
     (see [fm_pass]).
   - The pin counts are bit-packed ([Pin_counts.view]): each count is a
     field of b bits, b the bit length of the largest edge, ⌊62/b⌋ to a
     word, so an edge's k counts take ⌈k / ⌊62/b⌋⌉ words instead of k
     (one word up to k = 15 while no edge has 16 pins).  Every per-edge
     access reads one word at an offset and shift hoisted out of the edge
     loop (the moved node's src and dst, the row's own part).
     The counts live in the workspace and are refilled in place by the
     next call on the same hypergraph and k, so the coarsest-level
     portfolio allocates one word array, not one per candidate.
   - Selecting the best move of a cached node is O(k); the per-move accept
     check is O(1) against an incrementally maintained overweight-part
     count; the max-node-weight / max-gain / max-degree scan runs once per
     hypergraph ([Workspace.scan]), not once per [refine] call.
   - A pass ends as soon as no balanced prefix is reachable (the balance
     cutoff, see [fm_pass]): a moved node stays locked, so a part that has
     taken in more than its capacity stays overweight, and once more parts
     have done so than were overweight at the pass start no later prefix
     can pass the acceptance test.  The moves it skips are exactly moves
     the rollback would undo.

   Queue priorities are deliberately lazy: a move patches the gain rows
   but does not reposition live queue entries — a popped node whose
   recorded gain no longer matches its cached best is re-inserted with the
   fresh value, which now costs O(k) from the row instead of a full
   O(deg·k) recompute.  Between two applied moves every node is corrected
   at most once, so a pass terminates.  The one eager queue operation is
   activation: pins of an edge whose λ just left 1 (count(e, dst) left 0)
   are newly boundary and enter the queue at their cached best gain. *)

type config = { eps : float; metric : Partition.metric }

let default_config = { eps = 0.0; metric = Partition.Connectivity }

(* Passes per [refine] call. *)
let max_passes = 8

(* A pass gives up after this many consecutive applied moves without a new
   best prefix: the classic FM cutoff bounding how far a pass hill-climbs
   into a plateau. *)
let max_fruitless = 350

(* Mutable refinement state for one [refine] call.  [cache_stamp] marks
   valid gain rows; it starts fresh per call (rows from a previous
   hypergraph / partition can never leak in) and is bumped again after a
   rollback too long to patch, which bulk-invalidates every row in O(1).
   [lock_stamp] is refreshed per pass. *)
type ctx = {
  cfg : config;
  hg : Hypergraph.t;
  counts : Pin_counts.t;
  part : int array;
  k : int;
  weights : int array;
  cap : int;
  ws : Workspace.t;
  (* Flat CSR / count views for closure-free hot loops. *)
  pins : int array;
  pin_offs : int array;
  inc : int array;
  inc_offs : int array;
  pview : Pin_counts.view;
  plambdas : int array;
  edge_w : int array; (* read-only weight views: an accessor call per *)
  node_w : int array; (* read is measurable at move-walk frequencies *)
  max_node_weight : int; (* the pass's overfill slack *)
  max_degree : int; (* bounds the degrees a rollback replays *)
  mutable cache_stamp : int;
  mutable lock_stamp : int;
  mutable overweight : int; (* #parts with weight > cap, kept incrementally *)
  mutable cap_limit : int; (* feasibility bound of the current phase *)
  (* Delta of the move [best_move] last computed, read by its callers.
     Lives in the ctx (one per solve) rather than at module level so
     concurrent solves cannot race on it. *)
  mutable best_delta : int;
  (* Hot-loop counter shadows, flushed to [stats] once per pass: the
     patch loops run millions of times per solve. *)
  mutable n_pops : int;
  mutable n_stale : int;
  mutable n_applied : int;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_patches : int;
  (* The call's fm.* emissions, committed to the Obs registries on the
     main domain: by [refine] itself, or by the multilevel portfolio
     after its [Parallel.map] joins (Obs is inert on worker domains). *)
  stats : Fm_stats.t;
}

let flush_counters ctx =
  let s = ctx.stats in
  s.Fm_stats.pops <- s.Fm_stats.pops + ctx.n_pops;
  s.Fm_stats.stale <- s.Fm_stats.stale + ctx.n_stale;
  s.Fm_stats.applied <- s.Fm_stats.applied + ctx.n_applied;
  s.Fm_stats.cache_hits <- s.Fm_stats.cache_hits + ctx.n_hits;
  s.Fm_stats.cache_misses <- s.Fm_stats.cache_misses + ctx.n_misses;
  s.Fm_stats.delta_updates <- s.Fm_stats.delta_updates + ctx.n_patches;
  ctx.n_pops <- 0;
  ctx.n_stale <- 0;
  ctx.n_applied <- 0;
  ctx.n_hits <- 0;
  ctx.n_misses <- 0;
  ctx.n_patches <- 0

let locked ctx v = ctx.ws.Workspace.locked.(v) = ctx.lock_stamp

(* Build node v's gain row if its stamp is stale, in one sweep over v's
   edges under either metric.  Connectivity fills the benefit/penalty
   decomposition, subtracting each edge's weight from the parts of Λ(e)
   and adding W(v) to every slot at the end (the slot of v's own part, in
   every Λ(e), comes out 0).  Cut-net stores benefit(v) = -A, A the weight
   of the uncut edges v would cut (λ(e) = 1, count(e, src) >= 2), and
   penalty(v, q) = -B(q), B(q) the weight of the edges v alone keeps cut
   (λ(e) = 2, count(e, src) = 1) whose other part is q.  Either way
   delta(v -> q) = penalty(v, q) - benefit(v), and the row then answers
   best-move queries in O(k) until a move invalidates it. *)
let ensure_row ctx v =
  let ws = ctx.ws in
  if ws.Workspace.cache_stamp.(v) = ctx.cache_stamp then
    ctx.n_hits <- ctx.n_hits + 1
  else begin
    ctx.n_misses <- ctx.n_misses + 1;
    let k = ctx.k in
    let base = v * k in
    let penalty = ws.Workspace.penalty in
    let src = ctx.part.(v) in
    for q = 0 to k - 1 do
      penalty.(base + q) <- 0
    done;
    let { Pin_counts.words; stride; offset; shift; mask; bits; fields } =
      ctx.pview
    in
    let so = offset.(src) and ss = shift.(src) in
    (match ctx.cfg.metric with
    | Partition.Connectivity ->
        let mark = ws.Workspace.part_mark in
        let benefit = ref 0 and incident = ref 0 in
        for i = ctx.inc_offs.(v) to ctx.inc_offs.(v + 1) - 1 do
          let e = ctx.inc.(i) in
          let w = ctx.edge_w.(e) in
          let row = e * stride in
          incident := !incident + w;
          if (words.(row + so) lsr ss) land mask = 1 then
            benefit := !benefit + w;
          let lo = ctx.pin_offs.(e) and hi = ctx.pin_offs.(e + 1) in
          if hi - lo < k then begin
            (* Λ(e) from the pins' parts, each part once. *)
            let stamp = Workspace.next_stamp ws in
            for j = lo to hi - 1 do
              let q = ctx.part.(ctx.pins.(j)) in
              if mark.(q) <> stamp then begin
                mark.(q) <- stamp;
                penalty.(base + q) <- penalty.(base + q) - w
              end
            done
          end
          else
            (* Λ(e) from the non-empty fields, a word at a time; a word's
               fields past part k - 1 are 0. *)
            for j = 0 to stride - 1 do
              let word = ref words.(row + j) in
              let slot = ref (base + (j * fields)) in
              while !word <> 0 do
                if !word land mask <> 0 then
                  penalty.(!slot) <- penalty.(!slot) - w;
                word := !word lsr bits;
                incr slot
              done
            done
        done;
        for q = 0 to k - 1 do
          penalty.(base + q) <- penalty.(base + q) + !incident
        done;
        ws.Workspace.benefit.(v) <- !benefit
    | Partition.Cut_net ->
        let cuts = ref 0 in
        for i = ctx.inc_offs.(v) to ctx.inc_offs.(v + 1) - 1 do
          let e = ctx.inc.(i) in
          let lambda = ctx.plambdas.(e) in
          if lambda <= 2 then begin
            let cs = (words.((e * stride) + so) lsr ss) land mask in
            if lambda = 1 then begin
              if cs >= 2 then cuts := !cuts + ctx.edge_w.(e)
            end
            else if cs = 1 then begin
              (* v is e's lone src pin: moving it to the other part of
                 Λ(e), that of the first pin outside src, uncuts e. *)
              let j = ref ctx.pin_offs.(e) in
              while ctx.part.(ctx.pins.(!j)) = src do
                incr j
              done;
              let slot = base + ctx.part.(ctx.pins.(!j)) in
              penalty.(slot) <- penalty.(slot) - ctx.edge_w.(e)
            end
          end
        done;
        ws.Workspace.benefit.(v) <- - !cuts);
    ws.Workspace.cache_stamp.(v) <- ctx.cache_stamp
  end

(* Best feasible move of node v from its cached row: the destination of
   minimal delta among parts with room under [ctx.cap_limit] (first such
   part wins ties, matching the pre-cache scan order).  Returns the packed
   destination or -1, with the delta in [ctx.best_delta]. *)
let best_move ctx v =
  ensure_row ctx v;
  let ws = ctx.ws in
  let src = ctx.part.(v) in
  let w = ctx.node_w.(v) in
  let base = v * ctx.k in
  let benefit = ws.Workspace.benefit.(v) in
  let best = ref (-1) and best_delta = ref max_int in
  for q = 0 to ctx.k - 1 do
    if q <> src && ctx.weights.(q) + w <= ctx.cap_limit then begin
      let delta = ws.Workspace.penalty.(base + q) - benefit in
      if delta < !best_delta then begin
        best := q;
        best_delta := delta
      end
    end
  done;
  ctx.best_delta <- !best_delta;
  !best

(* Re-color v to dst and maintain weights plus the O(1) overweight count
   (shared by applied moves and the bulk rollback). *)
let shift_node ctx v ~src ~dst =
  ctx.part.(v) <- dst;
  let w = ctx.node_w.(v) in
  let was_over = ctx.weights.(src) > ctx.cap in
  ctx.weights.(src) <- ctx.weights.(src) - w;
  if was_over && ctx.weights.(src) <= ctx.cap then
    ctx.overweight <- ctx.overweight - 1;
  let was_over = ctx.weights.(dst) > ctx.cap in
  ctx.weights.(dst) <- ctx.weights.(dst) + w;
  if (not was_over) && ctx.weights.(dst) > ctx.cap then
    ctx.overweight <- ctx.overweight + 1

(* Apply the move v: src -> dst (src <> dst) in one walk over v's edges.
   The partition, weights and overweight count change first, and v's own
   row is invalidated.  Then, per edge e: its counts and λ, and, if a
   boundary crossing fired, one pass over its pins (v excepted) that
   applies every crossing at once to each valid row:
   - count(e, src) reached 0: src stopped costing anyone, penalty(u, src)
     rises by w_e;
   - count(e, src) reached 1: e is now lone for the pin left in src, its
     benefit rises by w_e;
   - count(e, dst) left 0: moving to dst no longer costs e's pins,
     penalty(u, dst) falls by w_e;
   - count(e, dst) left 1: the formerly lone dst pin got company, its
     benefit falls by w_e.
   Under cut-net any crossing invalidates the row instead.  With
   [activate], the pins of an edge whose count(e, dst) left 0 (λ just left
   1, so they are newly boundary) are collected in pin order, and after
   the walk each unlocked one not in the queue enters it at its cached
   best gain; rebalancing and rollback replay skip that (the walk still
   keeps every valid row exact). *)
let apply_move ctx queue v ~src ~dst ~activate =
  let ws = ctx.ws in
  shift_node ctx v ~src ~dst;
  let cache_stamp = ws.Workspace.cache_stamp in
  cache_stamp.(v) <- 0;
  let touched = ws.Workspace.touched and touch = ws.Workspace.touch in
  let touch_stamp = if activate then Workspace.next_stamp ws else 0 in
  if activate then Support.Int_vec.clear touched;
  let k = ctx.k and stamp = ctx.cache_stamp in
  let { Pin_counts.words; stride; offset; shift; mask; _ } = ctx.pview in
  let so = offset.(src) and ss = shift.(src) in
  let dw = offset.(dst) and ds = shift.(dst) in
  let plambdas = ctx.plambdas in
  let pins = ctx.pins and pin_offs = ctx.pin_offs and part = ctx.part in
  let inc = ctx.inc and edge_w = ctx.edge_w in
  let penalty = ws.Workspace.penalty and benefit = ws.Workspace.benefit in
  let connectivity = ctx.cfg.metric = Partition.Connectivity in
  let patches = ref 0 in
  for i = ctx.inc_offs.(v) to ctx.inc_offs.(v + 1) - 1 do
    let e = inc.(i) in
    let row = e * stride in
    (* The dst word is read after the src word is written: both fields
       may share it. *)
    let x = words.(row + so) - (1 lsl ss) in
    words.(row + so) <- x;
    let y = words.(row + dw) + (1 lsl ds) in
    words.(row + dw) <- y;
    let cs = (x lsr ss) land mask and cd = (y lsr ds) land mask in
    if cs = 0 then plambdas.(e) <- plambdas.(e) - 1;
    if cd = 1 then plambdas.(e) <- plambdas.(e) + 1;
    if cs <= 1 || cd <= 2 then begin
      let collect = activate && cd = 1 in
      let lo = pin_offs.(e) and hi = pin_offs.(e + 1) - 1 in
      if connectivity then begin
        let w = edge_w.(e) in
        for j = lo to hi do
          let u = pins.(j) in
          if u <> v then begin
            if cache_stamp.(u) = stamp then begin
              if cs = 0 then begin
                let slot = (u * k) + src in
                penalty.(slot) <- penalty.(slot) + w;
                incr patches
              end
              else if cs = 1 && part.(u) = src then begin
                benefit.(u) <- benefit.(u) + w;
                incr patches
              end;
              if cd = 1 then begin
                let slot = (u * k) + dst in
                penalty.(slot) <- penalty.(slot) - w;
                incr patches
              end
              else if cd = 2 && part.(u) = dst then begin
                benefit.(u) <- benefit.(u) - w;
                incr patches
              end
            end;
            if collect && touch.(u) <> touch_stamp then begin
              touch.(u) <- touch_stamp;
              Support.Int_vec.push touched u
            end
          end
        done
      end
      else
        for j = lo to hi do
          let u = pins.(j) in
          if u <> v then begin
            if cache_stamp.(u) = stamp then begin
              cache_stamp.(u) <- 0;
              incr patches
            end;
            if collect && touch.(u) <> touch_stamp then begin
              touch.(u) <- touch_stamp;
              Support.Int_vec.push touched u
            end
          end
        done
    end
  done;
  ctx.n_patches <- ctx.n_patches + !patches;
  if activate then
    for i = 0 to Support.Int_vec.length touched - 1 do
      let u = Support.Int_vec.get touched i in
      if (not (locked ctx u)) && not (Support.Bucket_queue.mem queue u)
      then begin
        let dst = best_move ctx u in
        if dst >= 0 then Support.Bucket_queue.insert queue u (-ctx.best_delta)
      end
    done

(* Seed the queue with the boundary: pins of edges with λ >= 2, each at
   its cached best gain.  One sweep over the edges, stamp-deduplicated;
   every boundary node, movable or not, is listed in [ws.seeded]. *)
let seed_boundary ctx queue =
  let ws = ctx.ws in
  let stamp = Workspace.next_stamp ws in
  let seen = ws.Workspace.seen in
  for e = 0 to Hypergraph.num_edges ctx.hg - 1 do
    if ctx.plambdas.(e) >= 2 then
      for i = ctx.pin_offs.(e) to ctx.pin_offs.(e + 1) - 1 do
        let v = ctx.pins.(i) in
        if seen.(v) <> stamp then begin
          seen.(v) <- stamp;
          Support.Int_vec.push ws.Workspace.seeded v;
          let dst = best_move ctx v in
          if dst >= 0 then
            Support.Bucket_queue.insert queue v (-ctx.best_delta)
        end
      done
  done;
  Fm_stats.observe_int ctx.stats.Fm_stats.boundary
    (Support.Int_vec.length ws.Workspace.seeded)

(* Full seeding: every node with a feasible move, as the pre-cache refiner
   did.  Used as a stall fallback — interior nodes only ever have
   non-negative deltas, but chains of such moves (classic FM hill
   climbing) sometimes reach strictly better valleys that boundary-only
   passes cannot, e.g. when whole clusters must migrate together.  Every
   node is listed in [ws.seeded]. *)
let seed_all ctx queue =
  for v = 0 to Hypergraph.num_nodes ctx.hg - 1 do
    Support.Int_vec.push ctx.ws.Workspace.seeded v;
    let dst = best_move ctx v in
    if dst >= 0 then Support.Bucket_queue.insert queue v (-ctx.best_delta)
  done

(* Right after seeding, every seeded node's row is valid and was computed
   from the pass-start partition.  Copy them into the workspace snapshot
   when that is cheaper than rebuilding them: k + 1 slots a node against
   a rebuild that walks at least every incident edge.  Returns whether
   the snapshot was taken. *)
let snapshot_rows ctx =
  let ws = ctx.ws and k = ctx.k in
  let seeded = ws.Workspace.seeded in
  let len = Support.Int_vec.length seeded in
  let degrees = ref 0 in
  for i = 0 to len - 1 do
    let v = Support.Int_vec.get seeded i in
    degrees := !degrees + ctx.inc_offs.(v + 1) - ctx.inc_offs.(v)
  done;
  if len * (k + 1) > !degrees then false
  else begin
    let snap = Workspace.grow_snapshot ws (len * (k + 1)) in
    for i = 0 to len - 1 do
      let v = Support.Int_vec.get seeded i in
      Array.blit ws.Workspace.penalty (v * k) snap (i * (k + 1)) k;
      snap.((i * (k + 1)) + k) <- ws.Workspace.benefit.(v)
    done;
    true
  end

(* After a bulk rollback to the pass start the partition and the counts
   are again those the snapshot rows were computed from, so those rows are
   exact: copy them back, valid under the current (just bumped) stamp. *)
let restore_rows ctx =
  let ws = ctx.ws and k = ctx.k in
  let seeded = ws.Workspace.seeded and snap = ws.Workspace.snapshot in
  for i = 0 to Support.Int_vec.length seeded - 1 do
    let v = Support.Int_vec.get seeded i in
    Array.blit snap (i * (k + 1)) ws.Workspace.penalty (v * k) k;
    ws.Workspace.benefit.(v) <- snap.((i * (k + 1)) + k);
    ws.Workspace.cache_stamp.(v) <- ctx.cache_stamp
  done

(* ANALYSIS_DEBUG self-check of the gain cache, run after every pass: each
   valid row must hold the move deltas the current counts give.  A solver
   invariant, not a paper rule, so it raises directly instead of joining
   the audit catalogue. *)
let audit_rows ctx =
  let ws = ctx.ws and k = ctx.k in
  for v = 0 to Hypergraph.num_nodes ctx.hg - 1 do
    if ws.Workspace.cache_stamp.(v) = ctx.cache_stamp then begin
      let src = ctx.part.(v) in
      for q = 0 to k - 1 do
        if q <> src then begin
          let cached =
            ws.Workspace.penalty.((v * k) + q) - ws.Workspace.benefit.(v)
          in
          let exact =
            Pin_counts.move_delta ~metric:ctx.cfg.metric ctx.counts v ~src
              ~dst:q
          in
          if cached <> exact then
            raise
              (Analysis_core.Debug.Audit_failure
                 (Printf.sprintf
                    "Refine.fm_pass: gain row of node %d, part %d: cached \
                     delta %d, exact %d"
                    v q cached exact))
        end
      done
    end
  done

(* One FM pass; returns the (non-negative) total gain realized.

   During the pass moves may overfill a part by one node (the classic FM
   slack that lets a perfectly balanced bisection trade nodes); the
   rollback then only accepts prefixes whose imbalance is no worse than the
   starting one, so a feasible partition never degrades.

   Balance cutoff: the pass tallies the node weight it moves into each
   part ([ws.moved_in], reset in O(k), one add per applied move) and ends
   at the move that leaves more parts with a tally above [cap] than were
   overweight at the pass start.  A moved node stays locked for the rest
   of the pass, so a part's weight never again drops below its tally: from
   that move on every prefix has more overweight parts than the start and
   fails the acceptance test.  The best prefix, and so the partition, the
   gain and the accepted moves, are those of the uncut pass; only moves
   the rollback would undo are skipped.  Under ANALYSIS_DEBUG a cut pass
   runs on to its natural end instead, and a new best prefix after the
   cut raises [Debug.Audit_failure].

   A pass that accepts nothing makes at most [max_fruitless] moves, so
   when that many of the largest degree sum to at most the seeded count
   its rollback always patches: the snapshot, only read after a bulk
   rollback to the pass start, is then not taken. *)
let fm_pass ctx queue ~full =
  let ws = ctx.ws in
  ctx.lock_stamp <- Workspace.next_stamp ws;
  ctx.cap_limit <- ctx.cap + ctx.max_node_weight;
  Support.Bucket_queue.clear queue;
  Support.Int_vec.clear ws.Workspace.seeded;
  if full then seed_all ctx queue else seed_boundary ctx queue;
  let seeded = Support.Int_vec.length ws.Workspace.seeded in
  let snapped =
    max_fruitless * ctx.max_degree > seeded && snapshot_rows ctx
  in
  let start_overweight = ctx.overweight in
  let moves = ws.Workspace.moves in
  Support.Int_vec.clear moves;
  let moved_in = ws.Workspace.moved_in in
  Array.fill moved_in 0 ctx.k 0;
  let over = ref 0 and cut_at = ref 0 in
  let self_check = Analysis_core.Debug.enabled () in
  let cum = ref 0 and best_cum = ref 0 and best_len = ref 0 and len = ref 0 in
  let fruitless = ref 0 in
  let continue = ref true in
  while !continue do
    match Support.Bucket_queue.pop_max queue with
    | None -> continue := false
    | Some (v, prio) ->
        ctx.n_pops <- ctx.n_pops + 1;
        if not (locked ctx v) then begin
          let dst = best_move ctx v in
          if dst >= 0 then begin
            let delta = ctx.best_delta in
            if -delta <> prio then begin
              (* Stale priority: correct and retry later. *)
              ctx.n_stale <- ctx.n_stale + 1;
              Support.Bucket_queue.insert queue v (-delta)
            end
            else begin
              let src = ctx.part.(v) in
              ctx.n_applied <- ctx.n_applied + 1;
              apply_move ctx queue v ~src ~dst ~activate:true;
              ws.Workspace.locked.(v) <- ctx.lock_stamp;
              Support.Int_vec.push moves v;
              Support.Int_vec.push moves src;
              Support.Int_vec.push moves dst;
              incr len;
              cum := !cum + (-delta);
              if !cum > !best_cum && ctx.overweight <= start_overweight
              then begin
                if !cut_at > 0 then
                  raise
                    (Analysis_core.Debug.Audit_failure
                       (Printf.sprintf
                          "Refine.fm_pass: balance cutoff at move %d, yet \
                           move %d is a new best prefix"
                          !cut_at !len));
                best_cum := !cum;
                best_len := !len;
                fruitless := 0
              end
              else begin
                incr fruitless;
                (* Deep in a plateau or valley with no new best in sight:
                   cut the pass short, everything past [best_len] is rolled
                   back anyway. *)
                if !fruitless >= max_fruitless then continue := false
              end;
              let w = ctx.node_w.(v) in
              let tally = moved_in.(dst) + w in
              moved_in.(dst) <- tally;
              if tally > ctx.cap && tally - w <= ctx.cap then begin
                incr over;
                if !over = start_overweight + 1 then begin
                  cut_at := !len;
                  ctx.stats.Fm_stats.balance_cutoffs <-
                    ctx.stats.Fm_stats.balance_cutoffs + 1;
                  if not self_check then continue := false
                end
              end
            end
          end
        end
  done;
  (* Roll back the moves after the best (balance-acceptable) prefix, one
     of three ways.  A replayed move patches about as many rows as the
     rolled-back node has edges, and the next pass rebuilds about as many
     rows as this one seeded.
     - Patched: when the rolled-back nodes' degrees sum to at most the
       seeded count, the suffix replays through [apply_move] (activation
       off; each replayed node's own row is invalidated, as an applied
       move does) and every valid row stays exact.
     - Bulk: otherwise it replays through [Pin_counts.move] alone and the
       call's stamp is bumped, which invalidates every row in O(1).
     - Bulk with restore: a bulk rollback of the whole pass returns to
       the pass-start state, so when the pass took a snapshot the seeded
       rows are copied back under the new stamp instead of being rebuilt
       by the next pass.
     An empty rollback keeps every row valid. *)
  if !len > !best_len then begin
    let degrees = ref 0 in
    for i = !best_len to !len - 1 do
      let v = Support.Int_vec.get moves (3 * i) in
      degrees := !degrees + ctx.inc_offs.(v + 1) - ctx.inc_offs.(v)
    done;
    let patch = !degrees <= seeded in
    for i = !len - 1 downto !best_len do
      let v = Support.Int_vec.get moves (3 * i) in
      let src = Support.Int_vec.get moves ((3 * i) + 1) in
      let dst = Support.Int_vec.get moves ((3 * i) + 2) in
      if patch then apply_move ctx queue v ~src:dst ~dst:src ~activate:false
      else begin
        shift_node ctx v ~src:dst ~dst:src;
        Pin_counts.move ctx.counts v ~src:dst ~dst:src
      end
    done;
    if not patch then begin
      ctx.cache_stamp <- Workspace.next_stamp ws;
      if !best_len = 0 && snapped then restore_rows ctx
    end
  end;
  if self_check then audit_rows ctx;
  let s = ctx.stats in
  s.Fm_stats.accepted <- s.Fm_stats.accepted + !best_len;
  s.Fm_stats.rolled_back <- s.Fm_stats.rolled_back + (!len - !best_len);
  flush_counters ctx;
  !best_cum

(* Push overweight parts under capacity with cheapest-delta moves; used when
   coarse-level solutions project to an infeasible partition.  The bucket
   queue holds exactly the nodes of overweight parts; each applied move
   strictly shrinks the total excess, dst parts only grow (so a node whose
   destinations are full never becomes movable again and is dropped), and
   stale priorities are corrected at pop time as in the FM pass. *)
let rebalance ctx queue =
  if ctx.overweight > 0 then begin
    let ws = ctx.ws in
    ctx.lock_stamp <- Workspace.next_stamp ws (* nothing is locked *);
    ctx.cap_limit <- ctx.cap;
    Support.Bucket_queue.clear queue;
    let n = Hypergraph.num_nodes ctx.hg in
    for v = 0 to n - 1 do
      if ctx.weights.(ctx.part.(v)) > ctx.cap then begin
        let dst = best_move ctx v in
        if dst >= 0 then
          Support.Bucket_queue.insert queue v (-ctx.best_delta)
      end
    done;
    (* Local shadows, flushed once after the loop — the batched-flush
       contract (DOM04): no per-event Obs emission on the hot path. *)
    let stale = ref 0 and moved = ref 0 in
    let continue = ref true in
    while !continue do
      match Support.Bucket_queue.pop_max queue with
      | None -> continue := false
      | Some (v, prio) ->
          if ctx.weights.(ctx.part.(v)) > ctx.cap then begin
            let dst = best_move ctx v in
            if dst >= 0 then begin
              let delta = ctx.best_delta in
              if -delta <> prio then begin
                incr stale;
                Support.Bucket_queue.insert queue v (-delta)
              end
              else begin
                incr moved;
                apply_move ctx queue v ~src:(ctx.part.(v)) ~dst
                  ~activate:false
              end
            end
          end
    done;
    let s = ctx.stats in
    s.Fm_stats.stale <- s.Fm_stats.stale + !stale;
    s.Fm_stats.rebalance <- s.Fm_stats.rebalance + !moved
  end

(* Refine [part] in place; returns the final cost.  An optional
   [workspace] lets callers (the multilevel driver) reuse scratch arrays,
   gain rows and the bucket queue across passes and levels; results are
   identical with or without one.  The call's fm.* emissions go to a
   [stats] accumulator: the caller's, which the caller commits on the
   main domain — how refinement on a worker domain (where Obs is
   inert) keeps its counters — or else a private one committed here. *)
let refine ?(config = default_config) ?workspace ?stats hg part =
  Obs.Span.with_ "refine"
    ~attrs:
      [
        ("n", Obs.Int (Hypergraph.num_nodes hg));
        ("k", Obs.Int (Partition.k part));
      ]
    (fun () ->
      let n = Hypergraph.num_nodes hg in
      let k = Partition.k part in
      let ws =
        match workspace with Some ws -> ws | None -> Workspace.create ()
      in
      Workspace.ensure ws ~n ~k;
      let counts = Pin_counts.create ?reuse:ws.Workspace.counts hg part in
      ws.Workspace.counts <- Some counts;
      let weights = Partition.part_weights hg part in
      let cap =
        Partition.capacity ~eps:config.eps
          ~total_weight:(Hypergraph.total_node_weight hg)
          ~k ()
      in
      let scan = Workspace.scan ws hg in
      let queue = Workspace.queue ws ~n ~range:scan.Workspace.max_gain in
      let ctx =
        {
          cfg = config;
          hg;
          counts;
          part = Partition.assignment part;
          k;
          weights;
          cap;
          ws;
          pins = Hypergraph.csr_pins hg;
          pin_offs = Hypergraph.csr_edge_offsets hg;
          inc = Hypergraph.csr_incidence hg;
          inc_offs = Hypergraph.csr_node_offsets hg;
          pview = Pin_counts.view counts;
          plambdas = Pin_counts.raw_lambdas counts;
          edge_w = Hypergraph.csr_edge_weights hg;
          node_w = Hypergraph.csr_node_weights hg;
          max_node_weight = scan.Workspace.max_node_weight;
          max_degree = scan.Workspace.max_degree;
          cache_stamp = Workspace.next_stamp ws;
          lock_stamp = Workspace.next_stamp ws;
          overweight = Support.Util.array_count (fun w -> w > cap) weights;
          cap_limit = cap;
          best_delta = 0;
          n_pops = 0;
          n_stale = 0;
          n_applied = 0;
          n_hits = 0;
          n_misses = 0;
          n_patches = 0;
          stats =
            (match stats with Some s -> s | None -> Fm_stats.create ());
        }
      in
      rebalance ctx queue;
      (* Boundary-seeded passes until they stall, then one full-seeded
         fallback pass (interior hill-climb chains); stop when that stalls
         too.  A productive fallback hands control back to the cheap
         boundary passes. *)
      let passes = ref 0 and improving = ref true and full = ref false in
      while !improving && !passes < max_passes do
        incr passes;
        let was_full = !full in
        let gain =
          Obs.Span.with_ "refine.pass"
            ~attrs:
              [ ("pass", Obs.Int !passes); ("full", Obs.Bool was_full) ]
            (fun () ->
              (* Allocation bill per pass, only metered under
                 HYPARTITION_PROF: the hot path is supposed to run
                 allocation-free out of the workspace arenas, and this
                 histogram is how a regression shows up in `report`. *)
              let alloc0 =
                if Obs.Prof.enabled () then Obs.Prof.allocated_words ()
                else 0.0
              in
              let gain = fm_pass ctx queue ~full:was_full in
              if Obs.Prof.enabled () then
                Fm_stats.observe_int ctx.stats.Fm_stats.pass_alloc
                  (int_of_float (Obs.Prof.allocated_words () -. alloc0));
              (* Per-pass cost trajectory, only evaluated when observing. *)
              if Obs.enabled () then begin
                Obs.Span.attr "gain" (Obs.Int gain);
                Obs.Span.attr "cost"
                  (Obs.Int (Pin_counts.cost ~metric:config.metric counts))
              end;
              gain)
        in
        Fm_stats.observe_int ctx.stats.Fm_stats.pass_gain gain;
        if gain > 0 then full := false
        else if was_full then improving := false
        else full := true
      done;
      let cost = Pin_counts.cost ~metric:config.metric counts in
      Obs.Span.attr "passes" (Obs.Int !passes);
      Obs.Span.attr "cost" (Obs.Int cost);
      Fm_stats.observe_int ctx.stats.Fm_stats.final_cost cost;
      if Option.is_none stats then Fm_stats.commit ctx.stats;
      Audit_gate.checked_cost ~metric:config.metric hg part cost)
