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
(** Compact one-line rendering (strings escaped, floats round-trip, a
    non-finite float as [null]). *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing garbage is an error. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

(** {1 Getters}

    Each reads one value, [None] when it has another kind. *)

val get_int : t -> int option
(** [Int] directly, or an integral [Float]. *)

val get_float : t -> float option
val get_str : t -> string option
val get_bool : t -> bool option

val get_obj : t -> (string * t) list option
(** An object's fields, in document order. *)

val get_arr : (t -> 'a option) -> t -> 'a list option
(** [get_arr get]: an array every element of which [get] reads.
    [get_arr Option.some] takes any array. *)

val get_enum : (string * 'a) list -> t -> 'a option
(** A string that names one of the listed values. *)

(** {1 Reading documents}

    The one vocabulary every reader of a program document uses.  A field
    of the wrong kind is an [Error] that names the field and the value
    found, never a silent default.  {!to_string} renders a non-finite
    float as [null], so {!optional} reads [null] as absent, and a
    reader that gives [null] a meaning (an unbounded ε, a NaN
    statistic) says so in the getter it hands {!field}. *)

val field : string -> (t -> 'a option) -> t -> ('a, string) result
(** [field name get j]: field [name] of [j] as [get] reads it.  A missing
    field, or one [get] rejects, is an [Error] naming the field and (its
    first 64 bytes of) the value found. *)

val optional : string -> (t -> 'a option) -> t -> ('a option, string) result
(** Like {!field}, but an absent or [null] field is [None].  A present
    field [get] rejects is still an [Error]. *)

val schema : expected:string -> t -> (unit, string) result
(** [j]'s ["schema"] tag is [expected]; a missing or different tag is an
    [Error] naming both. *)
