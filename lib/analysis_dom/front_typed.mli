(** The typed front: lower compiler [.cmt] files to the analyzer's IR,
    one {!unit_ir} per compilation unit.  The DOM rules, the call-graph
    pass and the effect analysis consume only this representation.

    Precision a syntactic pass cannot match: references are
    compiler-resolved paths (no scope guessing), and bindings are
    classified by their principal type, so repo-defined mutable records
    and aliases ([Obs.Counter.t]) are recognized through abstraction
    boundaries via the {!harvest} pass. *)

(** {1 The IR} *)

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

val kind_to_string : kind -> string

val compare_units : unit_ir -> unit_ir -> int
(** Deterministic unit ordering for reports: by source path. *)

(** {1 Reading and lowering} *)

type typed_unit = {
  tu_modname : string;  (* raw compilation-unit name, e.g. "Solvers__Refine" *)
  tu_source : string;  (* root-relative source path recorded in the cmt *)
  tu_str : Typedtree.structure;
}
(** One successfully-read implementation [.cmt]. *)

val read_cmt : string -> typed_unit option
(** Read one [.cmt] file.  [None] for interfaces, packs, partial trees,
    dune alias-root units ("Lib__") and unreadable/mismatched files;
    never raises. *)

type known
(** Repo-wide harvest of known-mutable type names. *)

val harvest : typed_unit list -> known
(** Fixpoint over all units' type declarations: a name such as
    ["Obs.counter"] is known-mutable if it is declared as a record with
    [mutable] fields, or is an alias resolving (transitively) to a
    builtin mutable constructor or another known-mutable name. *)

val extract : known:known -> has_mli:bool -> typed_unit -> unit_ir
(** Lower one unit: classify module-level bindings, record each toplevel
    function's referenced globals, and collect obs-emission sites inside
    loops, global-PRNG uses and Workspace/Rng escape stores. *)
