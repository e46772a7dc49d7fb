(** Reusable scratch state for the refinement/coarsening hot path: gain
    cache rows, stamped mark arrays, move log, the FM bucket queue, the
    snapshot of one pass's seeded gain rows, and the last refinement's pin
    counts and hypergraph maxima, allocated once per multilevel solve and
    shared across passes and levels.

    A workspace is owned by exactly one solver call tree at a time (the
    solvers are single-threaded); arrays only grow, and per-use validity
    is stamp-based so nothing is cleared between passes.  Sharing one
    workspace across successive solves is safe and is what
    {!Multilevel.partition} does internally; results are identical to
    using a fresh workspace per call. *)

type scan = {
  scanned : Hypergraph.t;
  max_node_weight : int;
  max_gain : int;  (** largest total incident edge weight, at least 1 *)
  max_degree : int;
}
(** The maxima of [scanned] that {!Refine.refine} sizes its passes and
    bucket queue by. *)

type t = {
  mutable benefit : int array;
  mutable penalty : int array;
  mutable cache_stamp : int array;
  mutable part_mark : int array;
  mutable counts : Pin_counts.t option;
  seeded : Support.Int_vec.t;
  mutable snapshot : int array;
  mutable moved_in : int array;
  mutable locked : int array;
  mutable touch : int array;
  mutable seen : int array;
  mutable score : float array;
  mutable stamp : int;
  touched : Support.Int_vec.t;
  moves : Support.Int_vec.t;
  cand : Support.Int_vec.t;
  mutable queue : Support.Bucket_queue.t option;
  mutable scan : scan option;
}

val create : unit -> t
(** An empty workspace; arrays grow on first {!ensure}. *)

val ensure : t -> n:int -> k:int -> unit
(** Grow every per-node (and the [n * k] gain-row and [k] part-mark and
    move-tally) array to hold [n] nodes and [k] parts.  Existing contents
    are preserved or replaced by zeroes; stamp discipline makes stale
    contents harmless. *)

val grow_snapshot : t -> int -> int array
(** The snapshot buffer, grown (contents not kept) to at least the given
    number of slots: where an FM pass copies the gain rows it seeded. *)

val scan : t -> Hypergraph.t -> scan
(** The hypergraph's maxima, scanned once and kept for later calls on the
    physically same hypergraph (another hypergraph replaces them). *)

val next_stamp : t -> int
(** A fresh stamp, distinct from every value currently stored in the
    stamped arrays — an O(1) bulk invalidation. *)

val queue : t -> n:int -> range:int -> Support.Bucket_queue.t
(** A cleared bucket queue over items [0, n) with priorities in
    [-range, range], reusing the cached one when it is large enough. *)
