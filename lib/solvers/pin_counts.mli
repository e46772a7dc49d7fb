(** Incremental per-edge color counts shared by the refinement passes.

    {b Layout.}  count(e, c), the pins of edge [e] in part [c], is a field
    [bits] wide, where [bits] is the bit length of the hypergraph's
    largest edge (at least 1; at most 25 for an instance the readers
    accept, whose edges hold at most {!Hypergraph.max_nodes} = 2{^24}
    pins).  Since a count never exceeds its edge's size, the field never
    overflows.  [fields] = ⌊62 / [bits]⌋ of them are packed into one
    word, so edge [e] takes [stride] = ⌈k / [fields]⌉ words instead of
    [k].  The width comes from the instance alone: every level of a
    multilevel solve sizes its own. *)

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

(** The packed words, for allocation-free hot loops.  count(e, c) is

    {[ (words.((e * stride) + offset.(c)) lsr shift.(c)) land mask ]}

    Fields of one word beyond part k − 1 are always 0, and part [c] of a
    word starting at part [c0] sits at bit [(c - c0) * bits], so a loop
    over all k counts of an edge can walk its [stride] words, shifting
    each right by [bits] per part.  Adding or subtracting [1 lsl shift.(c)]
    to a word changes count(e, c) by one and nothing else, as long as the
    count stays within the edge's size.  The record and its arrays are
    live, not copies: read-only, except to [Refine], whose move walk
    updates [words] exactly as {!move} would (λ through {!raw_lambdas}).
    A view stays valid for the life of [t], refills included. *)
type view = private {
  words : int array;  (** m × [stride] *)
  stride : int;  (** words per edge *)
  offset : int array;  (** k; part c's word within an edge's row *)
  shift : int array;  (** k; part c's bit offset within that word *)
  mask : int;  (** [(1 lsl bits) - 1] *)
  bits : int;  (** field width *)
  fields : int;  (** fields per word *)
}

val view : t -> view

val raw_lambdas : t -> int array
(** The live λ array, same contract as {!view}'s words. *)

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
