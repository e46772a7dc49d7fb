(** Incremental per-edge color counts shared by the refinement passes. *)

type t

val create : ?reuse:t -> Hypergraph.t -> Partition.t -> t
(** The counts of [part] on the hypergraph.  With [~reuse:r], where [r]
    was built for the physically same hypergraph ([==]) and the same k,
    [r]'s arrays are refilled in place and [r] itself is returned: [r] is
    consumed, and its earlier counts are gone.  Otherwise [reuse] is
    ignored and a fresh value is allocated. *)

val count : t -> int -> int -> int
(** [count t e c]: pins of edge [e] in part [c]. *)

val lambda : t -> int -> int
(** Maintained λ_e. *)

val raw_counts : t -> int array
(** The live m×k count matrix (edge [e]'s row starts at [e * k]), for
    allocation-free hot loops.  Read-only, except to [Refine], whose move
    walk updates it exactly as {!move} would. *)

val raw_lambdas : t -> int array
(** The live λ array, same contract as {!raw_counts}. *)

val move : t -> int -> src:int -> dst:int -> unit
(** Update counts and λ for a node move; the partition itself is the
    caller's to update. *)

val edge_delta :
  Partition.metric -> w:int -> lambda:int -> src_count:int -> dst_count:int -> int
(** Cost change on one edge of weight [w] when a pin moves from a part
    holding [src_count] of its pins to one holding [dst_count], with λ =
    [lambda] before the move.  {!move_delta} is its sum over the incident
    edges; callers use it directly to price a move under counts other than
    the maintained ones. *)

val move_delta :
  ?metric:Partition.metric -> t -> int -> src:int -> dst:int -> int
(** Cost change of moving node [v] from [src] to [dst], without moving. *)

val cost : ?metric:Partition.metric -> t -> int
