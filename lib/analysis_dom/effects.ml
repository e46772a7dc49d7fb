(* Interprocedural effect analysis over the lowered units: per-function
   effect signatures (reads/writes of unsafe module globals from the
   inventory, parameter-local mutation, calls into unanalyzed
   externals), propagated to a fixpoint over the call graph, then
   classified.  The result is the parallel-safety certificate committed
   as [analysis/effects.json] — per solver entry point, its
   classification and the shared globals it writes — and the per-function
   witness chains `lint --effects` prints on demand.

   Everything is name-keyed the way {!Callgraph} already resolves
   references, so the analysis inherits its deliberate
   over-approximation: a name that could denote a mutating function is
   treated as if it did.  Determinism is load-bearing — every set is
   sorted, chains break ties by (depth, key) — because the certificate
   must be byte-identical across runs for the CI freshness gate. *)

module I = Front_typed
module J = Obs.Json

let schema_version = "hypartition-effects/2"

type classification =
  | Pure
  | Workspace_local
  | Shared_read
  | Shared_mutating
  | Unknown

let classification_to_string = function
  | Pure -> "pure"
  | Workspace_local -> "workspace_local"
  | Shared_read -> "shared_read"
  | Shared_mutating -> "shared_mutating"
  | Unknown -> "unknown"

type signature_ = {
  s_reads : string list;  (* unsafe module globals read, qualified *)
  s_writes : string list;  (* unsafe module globals written *)
  s_externals : string list;  (* unresolved non-benign callees *)
  s_local_mut : bool;  (* parameter/local mutation somewhere below *)
}

type info = {
  e_key : string;  (* "Module.func" *)
  e_module : string;
  e_file : string;
  e_line : int;
  e_sig : signature_;  (* after fixpoint *)
  e_direct_writes : string list;  (* this body's own writes — the leaf facts *)
  e_class : classification;
  e_blame : (string * string list) list;
      (* written global -> minimal call chain from this function down to
         a direct writer of it (inclusive) *)
}

type t = {
  infos : info list;  (* reachable functions, sorted by key *)
  by_key : (string, info) Hashtbl.t;
  entry_points : string list;  (* entry function keys, sorted *)
}

(* ---- the external-call allowlist ---------------------------------------- *)

(* A reference that resolves to no analyzed function and no inventoried
   global is an external.  Externals from these stdlib modules are
   benign — pure, or mutating only values handed to them (the
   Workspace-discipline shape); anything else (Unix, Sys, Gc, Printf's
   channel printers, Domain, ...) widens the caller to [unknown], which
   is DOM09's business on the hot path.  [Fmt] is combinators over a
   caller-supplied formatter; [In_channel] operates on the channel it is
   handed (or opens itself), each carrying a per-channel runtime lock.
   [Condition] is benign by the same argument as [Mutex]: it blocks and
   signals on exactly the condition/mutex values handed to it, mutating
   nothing else — the Workspace-discipline shape.  [Domain] is NOT
   benign: spawn runs an arbitrary closure on another domain, which is
   precisely the effect this analysis cannot see past (the designated
   concurrency module carries a DOM09 allowlist entry instead). *)
let benign_modules =
  [
    "Array"; "ArrayLabels"; "Atomic"; "Bool"; "Buffer"; "Bytes";
    "BytesLabels"; "Char"; "Complex"; "Condition"; "Digest"; "Either";
    "Filename"; "Float"; "Fmt"; "Fun"; "Hashtbl"; "In_channel"; "Int";
    "Int32"; "Int64"; "Lazy"; "List"; "ListLabels"; "Map"; "Mutex";
    "Nativeint"; "Option"; "Queue"; "Result"; "Seq"; "Set"; "Sort";
    "Stack"; "String"; "StringLabels"; "Uchar";
  ]

(* Exact dotted names that are benign although their module is not:
   string formatting without a channel, backtrace rendering, clock and
   GC-statistics reads, and the explicit-state PRNG API (the implicit
   one is DOM03's business). *)
let benign_exact =
  [
    "Printf.sprintf"; "Printf.ksprintf"; "Format.sprintf";
    "Format.asprintf"; "Format.kasprintf"; "Printexc.to_string";
    "Random.State.bits"; "Random.State.bool"; "Random.State.char";
    "Random.State.copy"; "Random.State.float"; "Random.State.full_int";
    "Random.State.int"; "Random.State.int32"; "Random.State.int64";
    "Random.State.make"; "Random.State.nativeint";
    "Sys.time"; "Gc.counters"; "Monotonic_clock.now";
  ]

(* Bare (undotted) externals are stdlib pervasives — arithmetic,
   comparisons, [ref]/[!]/[ignore], exception raising.  All benign
   except the channel/process primitives, which touch shared state the
   runtime owns. *)
let bare_nonbenign =
  [
    "at_exit"; "close_in"; "close_in_noerr"; "close_out";
    "close_out_noerr"; "exit"; "flush"; "flush_all"; "input_byte";
    "input_char"; "input_line"; "input_value"; "open_in"; "open_in_bin";
    "open_out"; "open_out_bin"; "output_byte"; "output_bytes";
    "output_char"; "output_string"; "output_value"; "prerr_bytes";
    "prerr_char"; "prerr_endline"; "prerr_float"; "prerr_int";
    "prerr_newline"; "prerr_string"; "print_bytes"; "print_char";
    "print_endline"; "print_float"; "print_int"; "print_newline";
    "print_string"; "read_float"; "read_int"; "read_line"; "stderr";
    "stdin"; "stdout";
  ]

(* A dotted module prefix, as opposed to the '.' inside operator names
   like [+.] — a capitalized identifier before the first dot. *)
let module_prefix name =
  match String.index_opt name '.' with
  | None -> None
  | Some i ->
      let head = String.sub name 0 i in
      if
        head <> ""
        && head.[0] >= 'A'
        && head.[0] <= 'Z'
        && String.for_all
             (fun c ->
               (c >= 'A' && c <= 'Z')
               || (c >= 'a' && c <= 'z')
               || (c >= '0' && c <= '9')
               || c = '_' || c = '\'')
             head
      then Some head
      else None

let benign_external name =
  List.mem name benign_exact
  ||
  match module_prefix name with
  | None -> not (List.mem name bare_nonbenign)
  | Some head -> List.mem head benign_modules

(* ---- base facts ---------------------------------------------------------- *)

let union_sorted a b = List.sort_uniq String.compare (List.rev_append a b)

let compare_pair (a1, a2) (b1, b2) =
  let c = String.compare a1 b1 in
  if c <> 0 then c else String.compare a2 b2

(* Unsafe inventory globals, by qualified key.  [Obs_handle] values are
   excluded on purpose: handles are mutated parameter-locally inside Obs
   and counting them as shared state would classify every instrumented
   solver function shared-mutating; the obs *registries* (plain
   refs/containers in lib/obs) stay in and surface at their leaf
   writers. *)
let unsafe_global_keys units =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter
        (fun (g : I.global) ->
          if (not g.I.g_safe) && g.I.g_kind <> I.Obs_handle then
            Hashtbl.replace tbl (g.I.g_module ^ "." ^ g.I.g_name) ())
        u.I.u_globals)
    units;
  tbl

(* Every inventoried global (safe or not): a reference resolving here is
   state access, not an external call. *)
let all_global_keys units =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter
        (fun (g : I.global) ->
          Hashtbl.replace tbl (g.I.g_module ^ "." ^ g.I.g_name) ())
        u.I.u_globals)
    units;
  tbl

(* Resolve one function's references against the function table and the
   globals inventory: (resolved callee keys, unsafe globals read, unsafe
   globals written, non-benign externals).  A reference into an analyzed
   unit that resolves to neither a function nor an inventoried global is
   a plain immutable-value read — were it mutable, the inventory would
   hold it — so only references leaving the analyzed set can widen a
   signature to unknown. *)
let base_facts ~cg ~unsafe ~known (f : I.func) =
  let candidates r = Callgraph.candidates cg ~caller_module:f.I.f_module r in
  (* Judged on the name as written (no caller qualification), else every
     reference would gain a [Caller.]-prefixed candidate and look
     internal. *)
  let internal r =
    List.exists
      (fun c ->
        match module_prefix c with
        | Some head -> Callgraph.is_unit_module cg head
        | None -> false)
      (Callgraph.expand_name cg r)
  in
  let callees = ref [] and reads = ref [] and externals = ref [] in
  List.iter
    (fun r ->
      let cands = candidates r in
      let resolved = List.filter (fun c -> Callgraph.find_func cg c <> None) cands in
      if resolved <> [] then callees := List.rev_append resolved !callees;
      let globals = List.filter (Hashtbl.mem unsafe) cands in
      if globals <> [] then reads := List.rev_append globals !reads;
      if
        resolved = [] && globals = []
        && not (List.exists (Hashtbl.mem known) cands)
        && not (internal r)
        && not (benign_external r)
      then externals := r :: !externals)
    f.I.f_refs;
  let writes =
    List.concat_map (fun w -> List.filter (Hashtbl.mem unsafe) (candidates w))
      f.I.f_writes
  in
  ( List.sort_uniq String.compare !callees,
    List.sort_uniq String.compare !reads,
    List.sort_uniq String.compare writes,
    List.sort_uniq String.compare !externals )

let classify (s : signature_) =
  if s.s_writes <> [] then Shared_mutating
  else if s.s_reads <> [] then Shared_read
  else if s.s_externals <> [] then Unknown
  else if s.s_local_mut then Workspace_local
  else Pure

(* ---- blame chains -------------------------------------------------------- *)

(* For each written global: a shortest-path tree from the direct writers
   up the reverse call graph, so every function whose fixpoint writes
   contain the global knows its next hop toward a leaf writer.
   Deterministic: relaxation processes keys in sorted order and ties
   keep the smaller next-hop key. *)
let blame_chains ~keys ~callees ~direct_writes =
  let rev = Hashtbl.create 256 in
  List.iter
    (fun key ->
      List.iter
        (fun callee ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt rev callee) in
          Hashtbl.replace rev callee (key :: prev))
        (callees key))
    keys;
  let chains : (string * string, int * string option) Hashtbl.t =
    Hashtbl.create 256
  in
  (* (function, global) -> (depth to a direct writer, next hop) *)
  let better (d, n) (d', n') = d' < d || (d' = d && n' < n) in
  List.iter
    (fun key ->
      List.iter
        (fun g -> Hashtbl.replace chains (key, g) (0, None))
        (direct_writes key))
    keys;
  let frontier = ref (List.concat_map (fun k ->
      List.map (fun g -> (k, g)) (direct_writes k)) keys)
  in
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun (key, g) ->
        match Hashtbl.find_opt chains (key, g) with
        | None -> ()
        | Some (d, _) ->
            List.iter
              (fun caller ->
                let cand = (d + 1, Some key) in
                let improve =
                  match Hashtbl.find_opt chains (caller, g) with
                  | None -> true
                  | Some (d0, Some n0) -> better (d0, n0) (d + 1, key)
                  | Some (_, None) -> false  (* caller writes g itself *)
                in
                if improve then begin
                  Hashtbl.replace chains (caller, g) cand;
                  next := (caller, g) :: !next
                end)
              (List.sort String.compare
                 (Option.value ~default:[] (Hashtbl.find_opt rev key))))
      (List.sort compare_pair !frontier);
    frontier := List.sort_uniq compare_pair !next
  done;
  fun key g ->
    let rec follow key acc =
      match Hashtbl.find_opt chains (key, g) with
      | None -> List.rev acc  (* shouldn't happen for fixpoint writes *)
      | Some (_, None) -> List.rev (key :: acc)
      | Some (_, Some next) -> follow next (key :: acc)
    in
    follow key []

(* ---- the fixpoint -------------------------------------------------------- *)

let compute ~cg (units : I.unit_ir list) : t =
  let units = List.sort I.compare_units units in
  let unsafe = unsafe_global_keys units in
  let known = all_global_keys units in
  (* Collect every function with its unit context, in deterministic
     order; first definition of a key wins, same as the call graph. *)
  let order = ref [] in
  let ctx : (string, I.func * string) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun u ->
      List.iter
        (fun (f : I.func) ->
          let key = f.I.f_module ^ "." ^ f.I.f_name in
          if not (Hashtbl.mem ctx key) then begin
            Hashtbl.replace ctx key (f, u.I.u_file);
            order := key :: !order
          end)
        u.I.u_funcs)
    units;
  let keys = List.rev !order in
  let base : (string, string list * string list * string list * string list)
      Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun key ->
      let f, _ = Hashtbl.find ctx key in
      Hashtbl.replace base key (base_facts ~cg ~unsafe ~known f))
    keys;
  let callees key =
    match Hashtbl.find_opt base key with
    | Some (c, _, _, _) -> c
    | None -> []
  in
  (* Fixpoint: union reads/writes/externals and OR local_mut over
     callees until nothing changes.  Monotone over finite sorted sets,
     so termination is by size. *)
  let sigs : (string, signature_) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun key ->
      let f, _ = Hashtbl.find ctx key in
      let _, reads, writes, externals = Hashtbl.find base key in
      Hashtbl.replace sigs key
        {
          s_reads = reads;
          s_writes = writes;
          s_externals = externals;
          s_local_mut = f.I.f_local_mut;
        })
    keys;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun key ->
        let s = Hashtbl.find sigs key in
        let s' =
          List.fold_left
            (fun acc callee ->
              if callee = key then acc
              else
                let cs = Hashtbl.find sigs callee in
                {
                  s_reads = union_sorted acc.s_reads cs.s_reads;
                  s_writes = union_sorted acc.s_writes cs.s_writes;
                  s_externals = union_sorted acc.s_externals cs.s_externals;
                  s_local_mut = acc.s_local_mut || cs.s_local_mut;
                })
            s (callees key)
        in
        if s' <> s then begin
          Hashtbl.replace sigs key s';
          changed := true
        end)
      keys
  done;
  let direct_writes key =
    match Hashtbl.find_opt base key with
    | Some (_, _, w, _) -> w
    | None -> []
  in
  let chain = blame_chains ~keys ~callees ~direct_writes in
  (* reads minus writes for presentation: a written global is not
     re-listed as a read *)
  let reachable = List.filter (Callgraph.is_reachable_key cg) keys in
  let infos =
    List.map
      (fun key ->
        let f, file = Hashtbl.find ctx key in
        let s = Hashtbl.find sigs key in
        let s =
          { s with s_reads = List.filter (fun r -> not (List.mem r s.s_writes)) s.s_reads }
        in
        {
          e_key = key;
          e_module = f.I.f_module;
          e_file = file;
          e_line = f.I.f_line;
          e_sig = s;
          e_direct_writes = direct_writes key;
          e_class = classify s;
          e_blame = List.map (fun g -> (g, chain key g)) s.s_writes;
        })
      (List.sort String.compare reachable)
  in
  let by_key = Hashtbl.create 256 in
  List.iter (fun i -> Hashtbl.replace by_key i.e_key i) infos;
  { infos; by_key; entry_points = Callgraph.entry_keys cg }

let infos t = t.infos
let find t key = Hashtbl.find_opt t.by_key key

(* ---- the certificate ----------------------------------------------------- *)

(* One line per solver entry point — its classification and the sorted
   shared globals its fixpoint writes, which is what the parallel
   contract needs — so a change to one entry point is a one-line diff. *)
let entry_to_json (i : info) =
  J.Obj
    [
      ("function", J.Str i.e_key);
      ("classification", J.Str (classification_to_string i.e_class));
      ("writes", J.Arr (List.map (fun g -> J.Str g) i.e_sig.s_writes));
    ]

let certificate t =
  let entries = List.filter_map (find t) t.entry_points in
  let last = List.length entries - 1 in
  String.concat "\n"
    ([ "{"; "  \"schema\": " ^ J.to_string (J.Str schema_version) ^ ",";
       "  \"entry_points\": [" ]
    @ List.mapi
        (fun n i ->
          "    " ^ J.to_string (entry_to_json i) ^ if n < last then "," else "")
        entries
    @ [ "  ]"; "}"; "" ])

(* ---- stale-certificate comparison (DOM11) -------------------------------- *)

(* The committed certificate's entries: function -> (classification,
   writes), or what is wrong with the document. *)
let certified doc =
  let ( let* ) = Result.bind in
  let entry e =
    let* key = J.field "function" J.get_str e in
    let* cls = J.field "classification" J.get_str e in
    let* writes = J.field "writes" (J.get_arr J.get_str) e in
    Ok (key, (cls, writes))
  in
  let rec entries = function
    | [] -> Ok []
    | e :: rest ->
        let* x = entry e in
        let* xs = entries rest in
        Ok (x :: xs)
  in
  let* () = J.schema ~expected:schema_version doc in
  Result.bind (J.field "entry_points" (J.get_arr Option.some) doc) entries

(* One finding per stale entry, at its line in the committed file: an
   entry point whose classification or writes changed, one that is gone,
   and (at line 1) one the certificate lacks.  A parse failure, a schema
   mismatch or a layout-only difference is a single finding. *)
let stale_findings ~certificate_path ~certificate:text t =
  let finding ?(line = 1) what =
    {
      Lint.Rules.rule = "DOM11";
      severity = Analysis_core.Check.Error;
      file = certificate_path;
      line;
      col = 0;
      message =
        Printf.sprintf "%s; regenerate with `hypartition lint --effects-out %s`"
          what certificate_path;
    }
  in
  let line_of key =
    let needle = "{\"function\":" ^ J.to_string (J.Str key) in
    let rec go n = function
      | [] -> 1
      | l :: rest ->
          if String.starts_with ~prefix:needle (String.trim l) then n
          else go (n + 1) rest
    in
    go 1 (String.split_on_char '\n' text)
  in
  match J.parse text with
  | Error e -> [ finding ("committed certificate does not parse: " ^ e) ]
  | Ok doc -> (
      match certified doc with
      | Error e -> [ finding ("committed certificate: " ^ e) ]
      | Ok committed -> (
          let current =
            List.filter_map
              (fun key ->
                Option.map
                  (fun i ->
                    let cls = classification_to_string i.e_class in
                    (key, (cls, i.e_sig.s_writes)))
                  (find t key))
              t.entry_points
          in
          let stale =
            List.filter_map
              (fun (key, (cls, writes)) ->
                let line = line_of key in
                match List.assoc_opt key current with
                | None ->
                    Some
                      (finding ~line
                         (Printf.sprintf
                            "stale entry: %s is no longer a solver entry point"
                            key))
                | Some (now, _) when now <> cls ->
                    Some
                      (finding ~line
                         (Printf.sprintf
                            "stale entry: %s is certified %s but analyzes as %s"
                            key cls now))
                | Some (_, now) when now <> writes ->
                    Some
                      (finding ~line
                         (Printf.sprintf
                            "stale entry: %s is certified to write [%s] but \
                             writes [%s]"
                            key (String.concat ", " writes)
                            (String.concat ", " now)))
                | Some _ -> None)
              committed
          in
          let missing =
            List.filter_map
              (fun (key, (cls, _)) ->
                if List.mem_assoc key committed then None
                else
                  Some
                    (finding
                       (Printf.sprintf
                          "missing entry: solver entry point %s (%s) is not in \
                           the certificate"
                          key cls)))
              current
          in
          match stale @ missing with
          | [] when text <> certificate t ->
              [ finding "certificate layout differs from this run's rendering" ]
          | findings -> findings))

(* ---- witness rendering (`lint --effects`) -------------------------------- *)

(* What the certificate leaves out, on demand: every reachable function
   with its source position and classification, its transitive reads
   and externals, and the minimal call chain to a direct writer of each
   shared global it writes. *)
let render_witnesses t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if t.entry_points = [] then add "no solver entry points found\n";
  List.iter
    (fun i ->
      add "%s [%s] %s:%d%s\n" i.e_key
        (classification_to_string i.e_class)
        i.e_file i.e_line
        (if List.mem i.e_key t.entry_points then " (entry point)" else "");
      if i.e_sig.s_reads <> [] then
        add "  reads: %s\n" (String.concat ", " i.e_sig.s_reads);
      if i.e_sig.s_externals <> [] then
        add "  externals: %s\n" (String.concat ", " i.e_sig.s_externals);
      List.iter
        (fun (g, chain) ->
          add "  writes %s via %s\n" g (String.concat " -> " chain))
        i.e_blame)
    t.infos;
  Buffer.contents buf
