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
     right after seeding, and is only read back by that same pass.

   Stamp discipline: stamp arrays start at 0 and [stamp] at 1, so freshly
   grown regions are never accidentally valid; the counter only grows
   (63-bit, it cannot wrap in practice). *)

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
  (* Per-refine hoisted instance stats (max node weight, max total
     incident edge weight), computed once per [Refine.refine] call
     instead of once per pass. *)
  mutable max_node_weight : int;
  mutable max_gain : int;
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
    locked = [||];
    touch = [||];
    seen = [||];
    score = [||];
    stamp = 1;
    touched = Support.Int_vec.create ();
    moves = Support.Int_vec.create ();
    cand = Support.Int_vec.create ();
    queue = None;
    max_node_weight = 0;
    max_gain = 1;
  }

let grow_int a n = if Array.length a >= n then a else Array.make n 0
let grow_float a n = if Array.length a >= n then a else Array.make n 0.0

let ensure t ~n ~k =
  if n < 0 || k < 1 then invalid_arg "Workspace.ensure: bad dimensions";
  t.benefit <- grow_int t.benefit n;
  t.penalty <- grow_int t.penalty (n * k);
  t.cache_stamp <- grow_int t.cache_stamp n;
  t.part_mark <- grow_int t.part_mark k;
  t.locked <- grow_int t.locked n;
  t.touch <- grow_int t.touch n;
  t.seen <- grow_int t.seen n;
  t.score <- grow_float t.score n

(* The snapshot buffer, grown to hold at least [len] slots. *)
let grow_snapshot t len =
  t.snapshot <- grow_int t.snapshot len;
  t.snapshot

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
