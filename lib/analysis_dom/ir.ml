(* The intermediate representation of the domain-safety analyzer.  The
   typed front lowers each compilation unit's [.cmt] to a [unit_ir]: its
   module-level mutable bindings, its toplevel functions with the global
   identifiers each references, and the Workspace/Rng escape sites.  The
   DOM rules, the call-graph reachability pass and the effect analysis
   operate on this IR only. *)

(* Why a module-level binding is (or is not) shared mutable state.  The
   [Atomic] and [Mutex] kinds are mutable but domain-safe by
   construction; [Obs_handle] is a pre-interned metrics handle whose
   mutation is confined to the obs runtime (its emission discipline is
   DOM04's, not DOM01's). *)
type kind =
  | Ref
  | Array
  | Bytes
  | Hashtbl_poly
  | Lazy
  | Container  (* Queue/Stack/Buffer, or an immutable shell over mutables *)
  | Mutable_record
  | Atomic
  | Mutex
  | Workspace
  | Rng
  | Obs_handle

type global = {
  g_module : string;  (* normalized unit name, e.g. "Refine" *)
  g_name : string;  (* binding path within the unit, e.g. "Counter.next" *)
  g_file : string;  (* root-relative source path *)
  g_line : int;
  g_col : int;
  g_type : string;  (* printed principal type *)
  g_kind : kind;
  g_safe : bool;  (* Atomic/Mutex: racing writers cannot corrupt it *)
}

(* A per-event obs emission ([Obs.Counter.incr] & friends) lexically
   inside a loop of function [oe_fun] — DOM04 material when the function
   is hot-path-reachable. *)
type obs_emit = { oe_fun : string; oe_name : string; oe_line : int; oe_col : int }

(* A use of the stdlib's global PRNG ([Random.int], [Random.self_init],
   ...) — shared state that breaks solve determinism (DOM03). *)
type random_use = { ru_fun : string; ru_name : string; ru_line : int; ru_col : int }

(* A Workspace/Rng value stored into module state: the target of a [:=],
   a [<-] field write, or a [Hashtbl.add]-style call whose subject is a
   module-level binding, with an ownership-scoped value somewhere in the
   stored expression. *)
type escape = {
  esc_fun : string;
  esc_what : string;  (* "Workspace.t" or "Rng.t" *)
  esc_line : int;
  esc_col : int;
  esc_desc : string;
}

type func = {
  f_module : string;
  f_name : string;  (* path within the unit, e.g. "Counter.add" *)
  f_line : int;
  f_refs : string list;  (* normalized global identifiers, sorted, deduped *)
  f_ret_mentions : string list;  (* "Workspace.t"/"Rng.t" in the result type *)
  f_writes : string list;
      (* module-level bindings this body writes: the target of a [:=] or
         [<-], or the subject of a mutating call (Hashtbl.replace,
         Array.fill, incr, ...), normalized and qualified like [f_refs] *)
  f_local_mut : bool;
      (* mutation whose subject is NOT module-level: a parameter or a
         let-bound local — the Workspace-discipline shape *)
}

type unit_ir = {
  u_module : string;  (* normalized: "Refine", not "Solvers__Refine" *)
  u_file : string;  (* root-relative source path *)
  u_has_mli : bool;
  u_globals : global list;
  u_funcs : func list;
  u_escapes : escape list;
  u_obs_emits : obs_emit list;
  u_random_uses : random_use list;
  u_aliases : (string * string) list;
      (* module re-exports: ("", "Hg") for a toplevel [include Hg],
         ("Io", "Part_io") for [module Io = Part_io] — the owner path
         relative to the unit, and the normalized target path.  The call
         graph uses these to resolve references made through library
         roots (Hypergraph.fold_pins -> Hg.fold_pins). *)
}

(* ---- name normalization ------------------------------------------------- *)

(* Compiler paths arrive mangled by dune's module-name prefixing:
   ["Solvers__Refine.best_move"], ["Solvers__.Pin_counts.t"],
   ["Stdlib.ref"].  Normalization makes them comparable across units:
   drop alias-root components (trailing "__"), unprefix
   "Lib__Module" to "Module", and strip a leading "Stdlib". *)

let split_on_string ~sep s =
  let seplen = String.length sep and n = String.length s in
  let rec go start i acc =
    if i + seplen > n then List.rev (String.sub s start (n - start) :: acc)
    else if String.sub s i seplen = sep then
      go (i + seplen) (i + seplen) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  if seplen = 0 then [ s ] else go 0 0 []

let normalize_component comp =
  if String.length comp >= 2 && String.ends_with ~suffix:"__" comp then None
  else
    match List.rev (split_on_string ~sep:"__" comp) with
    | last :: _ :: _ when last <> "" -> Some last
    | _ -> Some comp

let normalize_path name =
  let comps = String.split_on_char '.' name in
  let comps = List.filter_map normalize_component comps in
  let comps =
    match comps with
    | "Stdlib" :: (_ :: _ as rest) -> rest
    | comps -> comps
  in
  String.concat "." comps

(* "Solvers__Refine" -> "Refine"; "Dune__exe__Main" -> "Main". *)
let module_of_unit name =
  match normalize_component name with Some m -> m | None -> name

(* Suffix match on dotted paths: [ends_with_path "Workspace.t"] accepts
   "Workspace.t" and "Solvers.Workspace.t" but not "Xworkspace.t". *)
let ends_with_path ~suffix name =
  name = suffix
  || String.ends_with ~suffix:("." ^ suffix) name

(* Name-based kind classification: given a normalized type-constructor path, the kinds recognizable without any
   type environment.  Ownership kinds (Workspace/Rng/obs handles) match
   by dotted suffix so that fixture modules defining their own
   [Workspace.t] classify like the real one.  Everything else —
   repo-defined mutable records, aliases — is the typed front's harvest
   pass. *)
let classify_name name : kind option =
  if ends_with_path ~suffix:"Workspace.t" name then Some Workspace
  else if
    ends_with_path ~suffix:"Rng.t" name
    || ends_with_path ~suffix:"Random.State.t" name
  then Some Rng
  else if
    ends_with_path ~suffix:"Counter.t" name
    || ends_with_path ~suffix:"Gauge.t" name
    || ends_with_path ~suffix:"Histogram.t" name
  then Some Obs_handle
  else if ends_with_path ~suffix:"Atomic.t" name then Some Atomic
  else if
    ends_with_path ~suffix:"Mutex.t" name
    || ends_with_path ~suffix:"Semaphore.Counting.t" name
    || ends_with_path ~suffix:"Semaphore.Binary.t" name
  then Some Mutex
  else if name = "ref" then Some Ref
  else if name = "array" || name = "floatarray" || ends_with_path ~suffix:"Floatarray.t" name
  then Some Array
  else if name = "bytes" || ends_with_path ~suffix:"Bytes.t" name then Some Bytes
  else if ends_with_path ~suffix:"Hashtbl.t" name then Some Hashtbl_poly
  else if name = "lazy_t" || ends_with_path ~suffix:"Lazy.t" name then Some Lazy
  else if
    ends_with_path ~suffix:"Queue.t" name
    || ends_with_path ~suffix:"Stack.t" name
    || ends_with_path ~suffix:"Buffer.t" name
  then Some Container
  else None

(* A container (tuple, option, list, ...) of a mutable value is itself
   shared mutable state; ownership kinds and the safe kinds keep their
   identity through the shell so the rules still see them. *)
let container_of = function
  | (Workspace | Rng | Atomic | Mutex | Obs_handle) as k -> k
  | _ -> Container

let kind_is_safe = function Atomic | Mutex -> true | _ -> false

(* ---- name predicates ------------------------------------------------------ *)

(* Per-event obs emission entry points (the batched-flush contract says
   hot loops accumulate into plain ints and flush once per pass with
   [Counter.add]). *)
let obs_emit_name name =
  ends_with_path ~suffix:"Counter.incr" name
  || ends_with_path ~suffix:"Histogram.observe" name
  || ends_with_path ~suffix:"Histogram.observe_int" name
  || ends_with_path ~suffix:"Gauge.set" name

(* The stdlib's implicit-state PRNG entry points (excludes the explicit
   [Random.State.*] API, which normalizes to "Random.State.<fn>"). *)
let random_global_name name =
  match name with
  | "Random.bits" | "Random.int" | "Random.int32" | "Random.int64"
  | "Random.nativeint" | "Random.float" | "Random.bool" | "Random.full_int"
  | "Random.self_init" | "Random.init" | "Random.full_init"
  | "Random.set_state" | "Random.get_state" ->
      true
  | _ -> false

(* Store operations whose first argument is the stored-into subject and
   which retain the stored value: [Hashtbl.add tbl k v] with [tbl] a
   module global makes [v] module state — escape material. *)
let is_store_fn name =
  ends_with_path ~suffix:"Hashtbl.add" name
  || ends_with_path ~suffix:"Hashtbl.replace" name
  || ends_with_path ~suffix:"Queue.add" name
  || ends_with_path ~suffix:"Queue.push" name
  || ends_with_path ~suffix:"Stack.push" name

(* The wider set for the effect analysis: calls that mutate their first
   argument without necessarily retaining anything.  A call whose subject
   is a module global is a write to it; on a local/parameter it is the
   Workspace-local shape. *)
let mutates_subject_fn name =
  is_store_fn name || name = "incr" || name = "decr"
  || ends_with_path ~suffix:"Hashtbl.remove" name
  || ends_with_path ~suffix:"Hashtbl.clear" name
  || ends_with_path ~suffix:"Hashtbl.reset" name
  || ends_with_path ~suffix:"Hashtbl.filter_map_inplace" name
  || ends_with_path ~suffix:"Array.set" name
  || ends_with_path ~suffix:"Array.fill" name
  || ends_with_path ~suffix:"Array.blit" name
  || ends_with_path ~suffix:"Array.sort" name
  || ends_with_path ~suffix:"Array.fast_sort" name
  || ends_with_path ~suffix:"Array.stable_sort" name
  || ends_with_path ~suffix:"Bytes.set" name
  || ends_with_path ~suffix:"Bytes.fill" name
  || ends_with_path ~suffix:"Bytes.blit" name
  || ends_with_path ~suffix:"Queue.pop" name
  || ends_with_path ~suffix:"Queue.take" name
  || ends_with_path ~suffix:"Queue.clear" name
  || ends_with_path ~suffix:"Stack.pop" name
  || ends_with_path ~suffix:"Stack.clear" name
  || ends_with_path ~suffix:"Buffer.clear" name
  || ends_with_path ~suffix:"Buffer.reset" name
  || String.starts_with ~prefix:"Buffer.add_" name

let kind_to_string = function
  | Ref -> "ref"
  | Array -> "array"
  | Bytes -> "bytes"
  | Hashtbl_poly -> "hashtbl"
  | Lazy -> "lazy"
  | Container -> "container"
  | Mutable_record -> "mutable-record"
  | Atomic -> "atomic"
  | Mutex -> "mutex"
  | Workspace -> "workspace"
  | Rng -> "rng"
  | Obs_handle -> "obs-handle"

(* Deterministic unit ordering for reports. *)
let compare_units a b = String.compare a.u_file b.u_file
