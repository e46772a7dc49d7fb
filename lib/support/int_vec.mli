(** Growable array of ints with amortized O(1) push. *)

type t

val create : unit -> t
val length : t -> int
val clear : t -> unit
(** [clear t] resets the length to 0 without shrinking capacity. *)

val push : t -> int -> unit
val get : t -> int -> int
val set : t -> int -> int -> unit
val pop : t -> int
(** Removes and returns the last element. Raises on empty. *)

val to_array : t -> int array
val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
