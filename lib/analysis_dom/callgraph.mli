(** Hot-path reachability: a breadth-first walk of the function-reference
    graph from the solver entry points, and the set of module globals any
    reachable function touches.

    Name-based and over-approximate by design — a safety gate should err
    toward flagging. *)

type t

val default_entries : (string * string) list
(** The solver hot path: [("Multilevel", "*")], [("Refine", "*")],
    [("Coarsen", "*")], [("Kl_swap", "*")], [("Runner", "*")] — ["*"]
    meaning every toplevel function of the module. *)

val compute : ?entries:(string * string) list -> Front_typed.unit_ir list -> t

val is_reachable : t -> module_:string -> func:string -> bool

val is_reachable_key : t -> string -> bool
(** Same check on an already-qualified ["Module.func"] key. *)

val global_is_hot : t -> Front_typed.global -> bool

val entry_keys : t -> string list
(** The resolved entry-point functions (["Module.func"] keys that
    actually exist among the lowered units), sorted. *)

val find_func : t -> string -> Front_typed.func option
(** The lowered function behind a key, reachable or not. *)

val candidates : t -> caller_module:string -> string -> string list
(** All names a reference may denote: as written, qualified within the
    calling module, rewritten through the units' [include] / module-alias
    re-exports, and with an unanalyzed library-wrapper head dropped when
    the next component names an analyzed unit.  Over-approximate by
    design, like the rest of the graph. *)

val expand_name : t -> string -> string list
(** Like {!candidates} but without the caller-module qualification: the
    expansion of the name exactly as written.  Used to decide whether an
    unresolved reference denotes a value inside an analyzed unit. *)

val is_unit_module : t -> string -> bool
(** Whether a name is the module name of an analyzed unit. *)
