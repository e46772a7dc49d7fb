(** Small shared helpers. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [⌈a / b⌉] for positive [b]. *)

val sum_array : int array -> int
val max_array : int array -> int
val min_array : int array -> int

val pow : int -> int -> int
(** Integer exponentiation; raises on negative exponent. *)

val choose : int -> int -> int
(** Binomial coefficient; 0 when [k] is out of range. *)

val monotonic_ns : unit -> int64
(** Monotonic wall-clock reading in nanoseconds ([CLOCK_MONOTONIC]); never
    goes backwards, [@@noalloc], and unrelated to the epoch.  Differences
    of two readings are elapsed wall time. *)

val seconds_of_ns : int64 -> float
(** Nanoseconds (e.g. a difference of {!monotonic_ns} readings) as
    seconds. *)

val iter_subsets : n:int -> k:int -> (int array -> unit) -> unit
(** Calls the function on every sorted [k]-subset of [\[0, n)]. The array is
    fresh for each call. *)

val iter_tuples : base:int -> len:int -> (int array -> unit) -> unit
(** Calls the function on every tuple in [\[0, base)^len]. The array is
    reused between calls and must not be retained. *)

val sort_int_range : int array -> int -> int -> unit
(** [sort_int_range a pos len] sorts the slice [\[pos, pos+len)] of [a]
    ascending, in place and without allocating. *)

val list_init : int -> (int -> 'a) -> 'a list
val array_count : ('a -> bool) -> 'a array -> int
