(** Orthogonal Vectors [21], source of the SETH hardness (Theorem 6.4). *)

type instance

val create : bool array array -> instance
val coordinate : instance -> int -> int -> bool
val dimensions : instance -> int * int
(** (m, d). *)

val orthogonal : instance -> int -> int -> bool
val find_pair : instance -> (int * int) option
(** Quadratic scan with 62-bit word packing. *)

val has_pair : instance -> bool

val random : ?plant:bool -> Support.Rng.t -> m:int -> d:int -> instance
(** Each coordinate set with probability 1/2; [plant] forces a
    yes-instance. *)
