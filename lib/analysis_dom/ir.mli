(** The IR of the domain-safety analyzer.

    The typed ([.cmt]) front lowers each compilation unit to a
    {!unit_ir}; the DOM rules, the call-graph pass and the effect
    analysis consume only this representation. *)

type kind =
  | Ref
  | Array
  | Bytes
  | Hashtbl_poly
  | Lazy
  | Container
  | Mutable_record
  | Atomic
  | Mutex
  | Workspace
  | Rng
  | Obs_handle

type global = {
  g_module : string;
  g_name : string;
  g_file : string;
  g_line : int;
  g_col : int;
  g_type : string;
  g_kind : kind;
  g_safe : bool;
}

type obs_emit = { oe_fun : string; oe_name : string; oe_line : int; oe_col : int }
type random_use = { ru_fun : string; ru_name : string; ru_line : int; ru_col : int }

type escape = {
  esc_fun : string;
  esc_what : string;
  esc_line : int;
  esc_col : int;
  esc_desc : string;
}

type func = {
  f_module : string;
  f_name : string;
  f_line : int;
  f_refs : string list;
  f_ret_mentions : string list;
  f_writes : string list;
      (** module-level bindings this body writes ([:=], [<-], or a
          mutating call on a module-global subject), qualified like
          [f_refs] *)
  f_local_mut : bool;
      (** mutation whose subject is a parameter or local — the
          Workspace-discipline shape *)
}

type unit_ir = {
  u_module : string;
  u_file : string;
  u_has_mli : bool;
  u_globals : global list;
  u_funcs : func list;
  u_escapes : escape list;
  u_obs_emits : obs_emit list;
  u_random_uses : random_use list;
  u_aliases : (string * string) list;
      (** module re-exports: [("", "Hg")] for a toplevel [include Hg],
          [("Io", "Part_io")] for [module Io = Part_io] — owner path
          relative to the unit, normalized target path.  Lets the call
          graph resolve references made through library roots. *)
}

val normalize_path : string -> string
(** Make compiler paths comparable across units: ["Solvers__.Pin_counts.t"]
    and ["Solvers__Workspace.t"] become ["Pin_counts.t"] /
    ["Workspace.t"]; a leading ["Stdlib."] is stripped. *)

val module_of_unit : string -> string
(** ["Solvers__Refine"] -> ["Refine"]; ["Dune__exe__Main"] -> ["Main"]. *)

val ends_with_path : suffix:string -> string -> bool
(** Dotted-path suffix match: ["Workspace.t"] accepts
    ["Solvers.Workspace.t"] but not ["Xworkspace.t"]. *)

val classify_name : string -> kind option
(** Kind of a normalized type-constructor path, when recognizable without
    a type environment: builtin mutable constructors ([ref], [array],
    [Hashtbl.t], ...), the domain-safe wrappers ([Atomic.t], [Mutex.t]),
    and the ownership types matched by dotted suffix ([Workspace.t],
    [Rng.t]/[Random.State.t], obs [Counter.t]/[Gauge.t]/[Histogram.t]).
    Repo-defined mutable records need the typed front's harvest pass. *)

val container_of : kind -> kind
(** The kind of an immutable shell (tuple/option/list/...) holding a
    value of the given kind: ownership and safe kinds survive, everything
    else becomes [Container]. *)

val kind_is_safe : kind -> bool
(** [Atomic] and [Mutex] — mutable but domain-safe by construction. *)

val obs_emit_name : string -> bool
(** Per-event obs emission entry points ([Counter.incr],
    [Histogram.observe], [Gauge.set], ...) — DOM04 material in loops. *)

val random_global_name : string -> bool
(** The stdlib's implicit-state PRNG entry points ([Random.int], ...);
    excludes the explicit [Random.State.*] API. *)

val is_store_fn : string -> bool
(** Store operations whose first argument is the stored-into subject and
    which retain the stored value ([Hashtbl.add], [Queue.push], ...). *)

val mutates_subject_fn : string -> bool
(** The wider effect-analysis set: calls that mutate their first
    argument ([Array.fill], [Hashtbl.clear], [incr], ...), retaining or
    not.  Superset of {!is_store_fn}. *)

val kind_to_string : kind -> string
val compare_units : unit_ir -> unit_ir -> int
