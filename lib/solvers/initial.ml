(* Initial partitioners: cheap constructions used at the coarsest level of
   the multilevel solver and as baselines in the experiments.  All respect
   the weighted epsilon-balance capacity when possible. *)

let capacity ~eps hg ~k =
  Partition.capacity ~eps
    ~total_weight:(Hypergraph.total_node_weight hg)
    ~k ()

(* Round-robin over a random node order into the lightest part that still
   has room; falls back to the lightest part if none has room (the result
   is then infeasible but as close as greedy gets). *)
let random_balanced ~eps rng hg ~k =
 Obs.Span.with_ "initial.random_balanced" @@ fun () ->
  let n = Hypergraph.num_nodes hg in
  let cap = capacity ~eps hg ~k in
  let order = Support.Rng.permutation rng n in
  let weights = Array.make k 0 in
  let colors = Array.make n 0 in
  Array.iter
    (fun v ->
      let w = Hypergraph.node_weight hg v in
      let best = ref (-1) in
      for c = 0 to k - 1 do
        if
          weights.(c) + w <= cap
          && (!best < 0 || weights.(c) < weights.(!best))
        then best := c
      done;
      let c =
        if !best >= 0 then !best
        else begin
          (* No part has room: lightest part overall. *)
          let lightest = ref 0 in
          for c = 1 to k - 1 do
            if weights.(c) < weights.(!lightest) then lightest := c
          done;
          !lightest
        end
      in
      colors.(v) <- c;
      weights.(c) <- weights.(c) + w)
    order;
  Audit_gate.checked hg (Partition.create ~k colors)

(* BFS growth: grow part after part from random seeds, following hyperedge
   adjacency, stopping each part near the ideal weight W/k.

   Stamp arrays keep the frontier duplicate-free: a node enters the queue
   at most once per part, so one part costs O(n + pins) instead of the
   O(pins^2) blowups dense instances used to hit when every placement
   re-enqueued whole pin lists.  The visit order is unchanged — duplicate
   entries were always dead on arrival (already colored, or blocked for
   this part), so popping only first occurrences is the same sequence. *)
let bfs_growth ~eps rng hg ~k =
 Obs.Span.with_ "initial.bfs_growth" @@ fun () ->
  let n = Hypergraph.num_nodes hg in
  let total = Hypergraph.total_node_weight hg in
  let cap = capacity ~eps hg ~k in
  let node_w = Hypergraph.csr_node_weights hg in
  let inc = Hypergraph.csr_incidence hg in
  let inc_offs = Hypergraph.csr_node_offsets hg in
  let pins = Hypergraph.csr_pins hg in
  let pin_offs = Hypergraph.csr_edge_offsets hg in
  let colors = Array.make n (-1) in
  let order = Support.Rng.permutation rng n in
  let queue = Queue.create () in
  let next_seed = ref 0 in
  (* Per-part stamps (the part index): [blocked] marks nodes that failed
     to fit in the current part, so an unplaceable seed is never re-picked
     (with weighted nodes it otherwise would be, forever); [queued] marks
     frontier membership. *)
  let blocked = Array.make n (-1) in
  let queued = Array.make n (-1) in
  let pick_seed c =
    while
      !next_seed < n
      && (colors.(order.(!next_seed)) >= 0 || blocked.(order.(!next_seed)) = c)
    do
      incr next_seed
    done;
    if !next_seed < n then Some order.(!next_seed) else None
  in
  let weights = Array.make k 0 in
  for c = 0 to k - 1 do
    (* Target: leave enough weight for the remaining parts. *)
    let target = min cap (Support.Util.ceil_div total k) in
    (match pick_seed c with
    | Some s ->
        queued.(s) <- c;
        Queue.add s queue
    | None -> ());
    let continue = ref true in
    while !continue do
      if Queue.is_empty queue then begin
        (* Disconnected remainder: re-seed if the part is still light. *)
        if weights.(c) < target then
          match pick_seed c with
          | Some s ->
              queued.(s) <- c;
              Queue.add s queue
          | None -> continue := false
        else continue := false
      end
      else begin
        let v = Queue.pop queue in
        if colors.(v) < 0 && blocked.(v) <> c then begin
          let w = node_w.(v) in
          if weights.(c) + w <= cap && weights.(c) < target then begin
            colors.(v) <- c;
            weights.(c) <- weights.(c) + w;
            for i = inc_offs.(v) to inc_offs.(v + 1) - 1 do
              let e = inc.(i) in
              for j = pin_offs.(e) to pin_offs.(e + 1) - 1 do
                let u = pins.(j) in
                if colors.(u) < 0 && queued.(u) <> c then begin
                  queued.(u) <- c;
                  Queue.add u queue
                end
              done
            done
          end
          else if weights.(c) >= target then continue := false
          else blocked.(v) <- c
        end
      end
    done;
    Queue.clear queue;
    (* The seed pointer only moved past nodes blocked for this part; reset
       it so later parts reconsider them. *)
    next_seed := 0
  done;
  (* Any stragglers: lightest part with room. *)
  for v = 0 to n - 1 do
    if colors.(v) < 0 then begin
      let w = node_w.(v) in
      let best = ref 0 in
      for c = 1 to k - 1 do
        if weights.(c) < weights.(!best) then best := c
      done;
      (* Prefer a part with room. *)
      for c = 0 to k - 1 do
        if weights.(c) + w <= cap && weights.(c) < weights.(!best) then
          best := c
      done;
      colors.(v) <- !best;
      weights.(!best) <- weights.(!best) + w
    end
  done;
  Audit_gate.checked hg (Partition.create ~k colors)

(* Deterministic fallback: nodes in index order, round robin. *)
let round_robin hg ~k =
  Audit_gate.checked hg
    (Partition.of_predicate ~k ~n:(Hypergraph.num_nodes hg) (fun v -> v mod k))
