(* The typed half of `hypartition lint`: pair the sources of one walk
   with the .cmt files a prior `dune build @check` left under _build,
   lower every unit through the typed front, run the call-graph pass,
   the effect analysis and the DOM rules, and hand the raw findings to
   Lint.Engine for the one suppression pass and report.

   Analyzer-owned hygiene is DOM00: a source no .cmt covers is an error
   (the DOM rules would be blind there), and a stale DOM suppression is
   a warning (raised by the shared stale-marker pass). *)

let catalogue = Lint.Rules.catalogue @ Dom_rules.catalogue

(* Directories the DOM rules cover under the root.  [test] is
   deliberately absent: the domain-safety contract covers shipped code,
   and the DOM fixture files under test/ violate it on purpose. *)
let default_subdirs = [ "lib"; "bin" ]

let certificate_path = "analysis/effects.json"

type result = { lint : Lint.Engine.result; effects : Effects.t }

(* The .cmt walk must descend into dune's dot-directories
   (lib/solvers/.solvers.objs/byte/...); it only visits the build
   directory's copies of the DOM subdirectories, so the test and
   benchmark .cmt files are never read. *)
let rec walk_cmts dir acc =
  match Sys.readdir dir with
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then walk_cmts path acc
          else if Filename.check_suffix name ".cmt" then path :: acc
          else acc)
        acc entries
  | exception Sys_error _ -> acc

(* Match a cmt's recorded source file against the walked source set:
   dune records paths relative to the build context root, but be
   tolerant of absolute prefixes. *)
let source_of_cmt ~rel_paths src =
  if List.mem src rel_paths then Some src
  else
    List.find_opt
      (fun rel -> String.ends_with ~suffix:("/" ^ rel) src)
      rel_paths

let uncovered rel =
  {
    Lint.Rules.rule = "DOM00";
    severity = Analysis_core.Check.Error;
    file = rel;
    line = 1;
    col = 0;
    message =
      "no .cmt under the build directory covers this source, so the DOM \
       rules cannot see it; run `dune build @check` first";
  }

(* Raw DOM findings over the walked sources, the effect analysis, and
   the number of typed units. *)
let analyze ~entries ~build_dir ~root sources =
  let rel_paths =
    List.filter
      (fun rel ->
        List.exists
          (fun sub -> String.starts_with ~prefix:(sub ^ "/") rel)
          default_subdirs)
      (List.map fst sources)
  in
  let mls =
    List.filter (fun rel -> Filename.check_suffix rel ".ml") rel_paths
  in
  (* Typed units: every readable implementation .cmt whose source is one
     of ours; first cmt claiming a source wins. *)
  let covered : (string, Front_typed.typed_unit) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun cmt ->
      match Front_typed.read_cmt cmt with
      | None -> ()
      | Some tu -> (
          match source_of_cmt ~rel_paths tu.Front_typed.tu_source with
          | Some rel when not (Hashtbl.mem covered rel) ->
              Hashtbl.replace covered rel
                { tu with Front_typed.tu_source = rel }
          | _ -> ()))
    (List.sort String.compare
       (List.concat_map
          (fun sub -> walk_cmts (Filename.concat build_dir sub) [])
          default_subdirs));
  let typed = List.filter_map (Hashtbl.find_opt covered) mls in
  let known = Front_typed.harvest typed in
  let units =
    List.sort Front_typed.compare_units
      (List.map
         (fun tu ->
           Front_typed.extract ~known
             ~has_mli:(List.mem (tu.Front_typed.tu_source ^ "i") rel_paths)
             tu)
         typed)
  in
  let cg = Callgraph.compute ~entries units in
  let effects = Effects.compute ~cg units in
  let stale =
    let abs = Filename.concat root certificate_path in
    if Sys.file_exists abs then
      Effects.stale_findings ~certificate_path
        ~certificate:(In_channel.with_open_bin abs In_channel.input_all)
        effects
    else []
  in
  let findings =
    Dom_rules.evaluate ~cg ~effects units
    @ stale
    @ List.map uncovered
        (List.filter (fun rel -> not (Hashtbl.mem covered rel)) mls)
  in
  (findings, effects, List.length units)

let run ?config_path ?(entries = Callgraph.default_entries) ?build_dir ~root
    () =
  Result.map
    (fun (tree : Lint.Engine.tree) ->
      let build_dir =
        Option.value build_dir
          ~default:(Filename.concat root (Filename.concat "_build" "default"))
      in
      let dom, effects, units =
        analyze ~entries ~build_dir ~root tree.Lint.Engine.sources
      in
      {
        lint =
          Lint.Engine.lint_sources ~config:tree.config
            ~config_errors:tree.config_errors ~units ~dom ~root tree.sources;
        effects;
      })
    (Lint.Engine.load ?config_path ~root ())
