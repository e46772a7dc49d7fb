(* Reusable scratch state for the refinement/coarsening hot path.  One
   workspace is allocated per multilevel solve and threaded through every
   FM pass, rebalance and clustering level, so the inner loops run on
   pre-sized flat arrays instead of reallocating (and re-zeroing) per pass.

   Ownership rules (see DESIGN.md "The hot path"):
   - a workspace belongs to exactly one solver call tree at a time; the
     solvers are single-threaded and never re-enter refinement, so a plain
     record with no locking suffices;
   - arrays only ever grow; [ensure] resizes to the high-water mark of the
     (n, k) pairs seen, which in a multilevel solve is the finest level;
   - the pin counts of the last [Refine.refine] call stay here and are
     consumed by the next call on the physically same hypergraph and k
     ([Pin_counts.create ~reuse]), so the portfolio's candidates on one
     coarsest level share one packed count array; a call on another
     hypergraph replaces them;
   - all per-use validity is stamp-based: a fresh stamp from [next_stamp]
     invalidates every node in O(1), so nothing is cleared between passes;
   - the snapshot buffer holds the gain rows one FM pass seeded, copied
     right after seeding, and is only read back by that same pass;
   - the per-hypergraph maxima [Refine.refine] sizes its passes by are
     scanned once and kept for the next call on the physically same
     hypergraph, as the pin counts are.

   Stamp discipline: stamp arrays start at 0 and [stamp] at 1, so freshly
   grown regions are never accidentally valid; the counter only grows
   (63-bit, it cannot wrap in practice). *)

(* The maxima of one hypergraph that [Refine.refine] needs: the largest
   node weight (a pass's overfill slack), the largest total incident edge
   weight (the gain range, at least 1) and the largest degree (bounding
   what a rollback costs). *)
type scan = {
  scanned : Hypergraph.t;
  max_node_weight : int;
  max_gain : int;
  max_degree : int;
}

type t = {
  (* Gain cache (Refine): row v of [penalty] is k slots at [v * k]; under
     the connectivity metric benefit/penalty are patched exactly by each
     move's walk over its edges, under cut-net the row caches the full
     delta vector and the walk invalidates it. *)
  mutable benefit : int array; (* n *)
  mutable penalty : int array; (* n * k *)
  mutable cache_stamp : int array; (* n; row valid iff = the refine stamp *)
  mutable part_mark : int array; (* k; parts of Λ(e) seen by a row build *)
  mutable counts : Pin_counts.t option; (* the last refine call's *)
  (* The nodes the current FM pass seeded, and (when the pass took one)
     a copy of their rows: k penalty slots then the benefit, k + 1 slots
     per node in [seeded] order. *)
  seeded : Support.Int_vec.t;
  mutable snapshot : int array;
  (* Per-part weight moved in by the current FM pass (k slots). *)
  mutable moved_in : int array;
  (* Stamped per-node marks (locks, touched-dedup, boundary-seen). *)
  mutable locked : int array; (* n *)
  mutable touch : int array; (* n *)
  mutable seen : int array; (* n *)
  (* Coarsening rating: flat score per candidate cluster leader. *)
  mutable score : float array; (* n *)
  mutable stamp : int;
  (* Shared vectors: FM touched-neighbour list, packed (v, src, dst) move
     log, coarsening candidate list. *)
  touched : Support.Int_vec.t;
  moves : Support.Int_vec.t;
  cand : Support.Int_vec.t;
  (* The FM bucket queue, recreated only when the node universe or the
     gain range outgrows the cached one. *)
  mutable queue : Support.Bucket_queue.t option;
  (* The last scanned hypergraph's maxima. *)
  mutable scan : scan option;
}

let create () =
  {
    benefit = [||];
    penalty = [||];
    cache_stamp = [||];
    part_mark = [||];
    counts = None;
    seeded = Support.Int_vec.create ();
    snapshot = [||];
    moved_in = [||];
    locked = [||];
    touch = [||];
    seen = [||];
    score = [||];
    stamp = 1;
    touched = Support.Int_vec.create ();
    moves = Support.Int_vec.create ();
    cand = Support.Int_vec.create ();
    queue = None;
    scan = None;
  }

let grow_int a n = if Array.length a >= n then a else Array.make n 0
let grow_float a n = if Array.length a >= n then a else Array.make n 0.0

let ensure t ~n ~k =
  if n < 0 || k < 1 then invalid_arg "Workspace.ensure: bad dimensions";
  t.benefit <- grow_int t.benefit n;
  t.penalty <- grow_int t.penalty (n * k);
  t.cache_stamp <- grow_int t.cache_stamp n;
  t.part_mark <- grow_int t.part_mark k;
  t.moved_in <- grow_int t.moved_in k;
  t.locked <- grow_int t.locked n;
  t.touch <- grow_int t.touch n;
  t.seen <- grow_int t.seen n;
  t.score <- grow_float t.score n

(* The snapshot buffer, grown to hold at least [len] slots. *)
let grow_snapshot t len =
  t.snapshot <- grow_int t.snapshot len;
  t.snapshot

(* [hg]'s maxima: the cached scan when it is of the physically same
   hypergraph, else a fresh one that replaces it. *)
let scan t hg =
  match t.scan with
  | Some s when s.scanned == hg -> s
  | _ ->
      let node_w = Hypergraph.csr_node_weights hg in
      let edge_w = Hypergraph.csr_edge_weights hg in
      let inc = Hypergraph.csr_incidence hg in
      let inc_offs = Hypergraph.csr_node_offsets hg in
      let max_node_weight = ref 0 and max_gain = ref 1 and max_degree = ref 0 in
      for v = 0 to Hypergraph.num_nodes hg - 1 do
        if node_w.(v) > !max_node_weight then max_node_weight := node_w.(v);
        let degree = inc_offs.(v + 1) - inc_offs.(v) in
        if degree > !max_degree then max_degree := degree;
        let s = ref 0 in
        for i = inc_offs.(v) to inc_offs.(v + 1) - 1 do
          s := !s + edge_w.(inc.(i))
        done;
        if !s > !max_gain then max_gain := !s
      done;
      let s =
        {
          scanned = hg;
          max_node_weight = !max_node_weight;
          max_gain = !max_gain;
          max_degree = !max_degree;
        }
      in
      t.scan <- Some s;
      s

let next_stamp t =
  let s = t.stamp + 1 in
  t.stamp <- s;
  s

(* A cleared bucket queue holding items [0, n) with priorities in
   [-range, range]; reuses the cached queue when it is large enough. *)
let queue t ~n ~range =
  let fits q =
    Support.Bucket_queue.capacity q >= n
    &&
    let lo, hi = Support.Bucket_queue.priority_range q in
    lo <= -range && hi >= range
  in
  match t.queue with
  | Some q when fits q ->
      Support.Bucket_queue.clear q;
      q
  | _ ->
      let q =
        Support.Bucket_queue.create ~min_priority:(-range)
          ~max_priority:range n
      in
      t.queue <- Some q;
      q
