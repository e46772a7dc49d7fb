(* The domain-safety rule set, DOM00..DOM11 (DOM10 is retired, not
   reused): the contract the multicore solver rests on.  Rules are
   evaluated over the typed front's {!Front_typed.unit_ir}s plus the hot-path
   reachability from
   {!Callgraph}; findings reuse hyplint's {!Lint.Rules.finding} record so
   the same suppression machinery (inline markers, [lint.config]) and
   reporting vocabulary apply unchanged. *)

module I = Front_typed

let catalogue =
  [
    ( "DOM00",
      "analyzer hygiene: a lib/bin source no .cmt covers (run `dune build \
       @check`), and DOM suppressions that matched nothing" );
    ( "DOM01",
      "module-global mutable state reachable from the solver hot path \
       without Atomic/Mutex or documented confinement" );
    ( "DOM02",
      "Workspace.t escaping its solve: stored into module state, or \
       returned by a module other than Workspace" );
    ( "DOM03",
      "shared PRNG state: the stdlib's global Random, a module-global \
       Rng.t, or an Rng stored into module state" );
    ( "DOM04",
      "per-event obs emission (Counter.incr & friends) inside a \
       hot-path loop: accumulate locally, flush once with Counter.add" );
    ( "DOM05",
      "toplevel Hashtbl in lib/solvers or lib/hypergraph (SRC09 \
       promoted to module scope)" );
    ( "DOM06",
      "lib module holding unsafe mutable globals without a sealing .mli" );
    ( "DOM07",
      "shared-mutating function reachable from a solver entry point: its \
       body writes an unsafe inventory global (the effect analysis names \
       the blame chain)" );
    ( "DOM08",
      "Workspace interior escaping its owner: a mutable field projected \
       out of a Workspace.t stored into module state" );
    ( "DOM09",
      "hot-path function whose effects are unknown solely because of \
       calls into unanalyzed externals" );
    ( "DOM11",
      "stale parallel-safety certificate: a committed \
       analysis/effects.json entry point disagrees with this run — \
       regenerate with lint --effects-out" );
  ]

(* The hot-path directories of DOM05 — same set SRC09 polices at
   expression level. *)
let in_hot_dir path =
  String.starts_with ~prefix:"lib/solvers/" path
  || String.starts_with ~prefix:"lib/hypergraph/" path

let in_lib path = String.starts_with ~prefix:"lib/" path

let finding ~rule ~file ~line ~col message =
  {
    Lint.Rules.rule;
    severity = Analysis_core.Check.Error;
    file;
    line;
    col;
    message;
  }

(* DOM01/DOM05/DOM02/DOM03 as they apply to one module-level binding. *)
let global_findings ~cg (u : I.unit_ir) (g : I.global) =
  let where = Printf.sprintf "%s.%s" g.I.g_module g.I.g_name in
  let mk ~rule msg = finding ~rule ~file:g.I.g_file ~line:g.I.g_line ~col:g.I.g_col msg in
  match g.I.g_kind with
  | I.Atomic | I.Mutex | I.Obs_handle -> []
  | I.Workspace ->
      if u.I.u_module = "Workspace" then []
      else
        [
          mk ~rule:"DOM02"
            (Printf.sprintf
               "module-global Workspace.t `%s` outlives any single solve; \
                workspaces must be created per solve and passed explicitly"
               where);
        ]
  | I.Rng ->
      [
        mk ~rule:"DOM03"
          (Printf.sprintf
             "module-global Rng state `%s` (%s) is shared across solves; \
              take an explicit Rng.t parameter instead"
             where g.I.g_type);
      ]
  | I.Hashtbl_poly when in_hot_dir g.I.g_file ->
      [
        mk ~rule:"DOM05"
          (Printf.sprintf
             "toplevel Hashtbl `%s` in a hot-path module; use a \
              workspace-owned structure or move it behind an explicit \
              context"
             where);
      ]
  | _ ->
      if Callgraph.global_is_hot cg g then
        [
          mk ~rule:"DOM01"
            (Printf.sprintf
               "module-global %s `%s` (%s) is reachable from the solver \
                hot path without Atomic/Mutex; convert it or suppress \
                with a confinement rationale"
               (I.kind_to_string g.I.g_kind)
               where g.I.g_type);
        ]
      else []

let unit_findings ~cg (u : I.unit_ir) =
  let globals = List.concat_map (global_findings ~cg u) u.I.u_globals in
  let escapes =
    List.filter_map
      (fun (e : I.escape) ->
        let rule =
          match e.I.esc_what with
          | "Workspace.t" -> "DOM02"
          | "Workspace interior" -> "DOM08"
          | _ -> "DOM03"
        in
        (* a store inside the owning module's own implementation is its
           business (Workspace pooling, Rng caches behind the API) *)
        if
          ((e.I.esc_what = "Workspace.t" || e.I.esc_what = "Workspace interior")
          && u.I.u_module = "Workspace")
          || (e.I.esc_what = "Rng.t" && u.I.u_module = "Rng")
        then None
        else
          Some
            (finding ~rule ~file:u.I.u_file ~line:e.I.esc_line
               ~col:e.I.esc_col
               (Printf.sprintf "%s value escapes in %s.%s: %s"
                  e.I.esc_what u.I.u_module e.I.esc_fun e.I.esc_desc)))
      u.I.u_escapes
  in
  let returns =
    if u.I.u_module = "Workspace" then []
    else
      List.filter_map
        (fun (f : I.func) ->
          (* a submodule named Workspace owns its constructors the same
             way the Workspace unit does *)
          if
            List.mem "Workspace.t" f.I.f_ret_mentions
            && not (String.starts_with ~prefix:"Workspace." f.I.f_name)
          then
            Some
              (finding ~rule:"DOM02" ~file:u.I.u_file ~line:f.I.f_line ~col:0
                 (Printf.sprintf
                    "%s.%s returns a value mentioning Workspace.t; interior \
                     workspace state must not outlive the solve that owns it"
                    u.I.u_module f.I.f_name))
          else None)
        u.I.u_funcs
  in
  let randoms =
    if not (in_lib u.I.u_file) then []
    else
      List.map
        (fun (r : I.random_use) ->
          finding ~rule:"DOM03" ~file:u.I.u_file ~line:r.I.ru_line
            ~col:r.I.ru_col
            (Printf.sprintf
               "%s.%s uses the stdlib's global PRNG (%s); thread a \
                Support.Rng.t instead"
               u.I.u_module r.I.ru_fun r.I.ru_name))
        u.I.u_random_uses
  in
  let emits =
    if u.I.u_module = "Obs" then []
    else
      List.filter_map
        (fun (e : I.obs_emit) ->
          if Callgraph.is_reachable cg ~module_:u.I.u_module ~func:e.I.oe_fun
          then
            Some
              (finding ~rule:"DOM04" ~file:u.I.u_file ~line:e.I.oe_line
                 ~col:e.I.oe_col
                 (Printf.sprintf
                    "%s called in a loop of hot-path function %s.%s; \
                     accumulate into a local int and flush once with \
                     Counter.add / a single observe"
                    e.I.oe_name u.I.u_module e.I.oe_fun))
          else None)
        u.I.u_obs_emits
  in
  let sealing =
    let unsafe =
      List.filter
        (fun (g : I.global) ->
          (not g.I.g_safe)
          && g.I.g_kind <> I.Obs_handle
          && g.I.g_kind <> I.Workspace)
        u.I.u_globals
    in
    if in_lib u.I.u_file && (not u.I.u_has_mli) && unsafe <> [] then
      let g = List.hd unsafe in
      [
        finding ~rule:"DOM06" ~file:u.I.u_file ~line:g.I.g_line ~col:g.I.g_col
          (Printf.sprintf
             "module %s holds %d unsafe mutable global(s) (first: %s) but \
              has no sealing .mli; an interface is required to state what \
              the mutation contract is"
             u.I.u_module (List.length unsafe) g.I.g_name);
      ]
    else []
  in
  globals @ escapes @ returns @ randoms @ emits @ sealing

(* DOM07/DOM09 over the effect analysis.  Every info is already
   reachable from the solver entry points, so "hot" is implicit.  DOM07
   fires at the direct writer — the leaf of every blame chain — not at
   each transitive caller, so one shared write is one finding to fix or
   suppress, not a finding per path to it. *)
let effects_findings (effects : Effects.t) =
  List.concat_map
    (fun (i : Effects.info) ->
      let mk ~rule ~severity message =
        { Lint.Rules.rule; severity; file = i.Effects.e_file;
          line = i.Effects.e_line; col = 0; message }
      in
      let writers =
        if i.Effects.e_direct_writes = [] then []
        else
          [
            mk ~rule:"DOM07" ~severity:Analysis_core.Check.Error
              (Printf.sprintf
                 "%s writes shared mutable global(s) %s and is reachable \
                  from the solver entry points; make it workspace-local or \
                  suppress with a confinement rationale"
                 i.Effects.e_key
                 (String.concat ", " i.Effects.e_direct_writes));
          ]
      in
      let unknowns =
        if i.Effects.e_class <> Effects.Unknown then []
        else
          [
            mk ~rule:"DOM09" ~severity:Analysis_core.Check.Error
              (Printf.sprintf
                 "effects of hot-path function %s are unknown solely because \
                  of unanalyzed external call(s): %s"
                 i.Effects.e_key
                 (String.concat ", " i.Effects.e_sig.Effects.s_externals));
          ]
      in
      List.concat [ writers; unknowns ])
    (Effects.infos effects)

let evaluate ~cg ~effects (units : I.unit_ir list) =
  let all =
    List.concat_map (unit_findings ~cg) units @ effects_findings effects
  in
  List.sort Lint.Rules.compare_findings all
