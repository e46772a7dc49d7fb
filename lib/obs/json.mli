(** A deliberately small JSON value type, printer and parser — enough to
    emit traces, result records and reports and to parse them back for
    validation and reporting, without an external dependency.  Re-exported as
    [Obs.Json]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering (strings escaped, floats round-trip). *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing garbage is an error. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val get_int : t -> int option
(** [Int] directly, or an integral [Float]. *)

val get_float : t -> float option
val get_str : t -> string option
