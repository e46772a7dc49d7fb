(* The shared half of `hypartition lint`: walk the source tree once,
   parse lint.config once, run the SRC rules over every .ml/.mli, then
   apply one suppression and stale-marker pass to the SRC findings and
   the DOM findings the typed pass (Analysis_dom.Driver) hands in, and
   fold everything into the same Check report vocabulary the invariant
   auditors use — so `hypartition lint` and `hypartition check` read
   identically and gate identically. *)

module Check = Analysis_core.Check

let schema_version = "hypartition-lint/2"

(* Directories walked relative to the root, in order. *)
let default_subdirs = [ "lib"; "bin"; "test" ]

type result = {
  root : string;
  files : int;  (* compilation units scanned *)
  units : int;  (* typed units the DOM rules analyzed *)
  findings : Rules.finding list;  (* live (unsuppressed), sorted *)
  suppressed : (Rules.finding * string) list;  (* finding, reason *)
}

(* ---- parsing ------------------------------------------------------------ *)

let parse_with parse ~path source =
  let lexbuf = Lexing.from_string source in
  lexbuf.Lexing.lex_curr_p <-
    { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
  match parse lexbuf with
  | ast -> Ok ast
  | exception exn ->
      let line =
        match exn with
        | Syntaxerr.Error err ->
            (Syntaxerr.location_of_error err).loc_start.pos_lnum
        | _ -> 1
      in
      Error (line, Printexc.to_string exn)

let parse_error_finding ~path (line, what) =
  {
    Rules.rule = "SRC00";
    severity = Check.Error;
    file = path;
    line;
    col = 0;
    message = "does not parse: " ^ what;
  }

(* ---- per-file scan ------------------------------------------------------ *)

(* Raw findings for one compilation unit, before suppression.  [.mli]
   files only get a parse check: the expression rules have nothing to
   look at in a signature. *)
let scan_file ~path source =
  if Filename.check_suffix path ".mli" then
    match parse_with Parse.interface ~path source with
    | Ok _ -> []
    | Error e -> [ parse_error_finding ~path e ]
  else
    match parse_with Parse.implementation ~path source with
    | Ok str -> Rules.scan ~path str
    | Error e -> [ parse_error_finding ~path e ]

(* SRC07 needs the whole file set: an .ml under lib/ with no sibling
   .mli and with real definitions (not a pure re-export root) must be
   sealed. *)
let interface_findings files =
  let have = Hashtbl.create 64 in
  List.iter (fun (path, _) -> Hashtbl.replace have path ()) files;
  List.filter_map
    (fun (path, source) ->
      if
        Filename.check_suffix path ".ml"
        && String.starts_with ~prefix:"lib/" path
        && not (Hashtbl.mem have (path ^ "i"))
      then
        match parse_with Parse.implementation ~path source with
        | Error _ -> None (* already reported as SRC00 *)
        | Ok str ->
            if Rules.reexport_only str then None
            else
              Some
                {
                  Rules.rule = "SRC07";
                  severity = Check.Error;
                  file = path;
                  line = 1;
                  col = 0;
                  message =
                    Filename.basename path
                    ^ " has no interface: library modules must be sealed \
                       with an .mli";
                }
      else None)
    files

(* ---- suppression -------------------------------------------------------- *)

let apply_suppressions ~config ~scans findings =
  let live = ref [] and suppressed = ref [] in
  List.iter
    (fun (f : Rules.finding) ->
      let inline =
        match List.assoc_opt f.file scans with
        | None -> None
        | Some scan -> Suppress.inline_match scan ~rule:f.rule ~line:f.line
      in
      match inline with
      | Some m ->
          m.Suppress.i_used <- true;
          suppressed := (f, m.Suppress.i_reason) :: !suppressed
      | None -> (
          match Suppress.config_match config ~rule:f.rule ~path:f.file with
          | Some e ->
              e.Suppress.e_used <- true;
              suppressed := (f, e.Suppress.e_reason) :: !suppressed
          | None -> live := f :: !live))
    findings;
  (List.rev !live, List.rev !suppressed)

(* Hygiene findings from the suppression machinery itself: malformed /
   reason-less markers are SRC00 errors, markers that matched nothing
   are warnings (stale suppressions hide future regressions), owned by
   DOM00 when the marker names only DOM rules and by SRC00 otherwise. *)
let hygiene_findings ~scans =
  let malformed =
    List.concat_map
      (fun (path, scan) ->
        List.map
          (fun (line, what) ->
            {
              Rules.rule = "SRC00";
              severity = Check.Error;
              file = path;
              line;
              col = 0;
              message = "bad hyplint marker: " ^ what;
            })
          scan.Suppress.malformed)
      scans
  in
  let unused =
    List.concat_map
      (fun (path, scan) ->
        List.filter_map
          (fun (m : Suppress.inline) ->
            let dom_only =
              List.for_all (String.starts_with ~prefix:"DOM") m.i_rules
            in
            if m.i_used then None
            else
              Some
                {
                  Rules.rule = (if dom_only then "DOM00" else "SRC00");
                  severity = Check.Warning;
                  file = path;
                  line = m.i_line;
                  col = 0;
                  message =
                    Printf.sprintf
                      "suppression of %s matched no finding; remove it"
                      (String.concat ", " m.i_rules);
                })
          scan.Suppress.markers)
      scans
  in
  malformed @ unused

(* ---- the pure entry point ----------------------------------------------- *)

(* [lint_sources] is the whole pipeline over in-memory (path, content)
   pairs — the filesystem-free core that the SRC fixture tests drive.
   [dom] are the typed pass's raw findings over [units] units; they go
   through the same suppression pass as the SRC findings. *)
let lint_sources ?(config = []) ?(config_errors = []) ?(units = 0) ?(dom = [])
    ~root files =
  let scans =
    List.filter_map
      (fun (path, source) ->
        if Filename.check_suffix path ".ml" then
          Some (path, Suppress.scan_inline source)
        else None)
      files
  in
  let raw =
    List.concat_map (fun (path, source) -> scan_file ~path source) files
    @ interface_findings files @ dom
  in
  let live, suppressed = apply_suppressions ~config ~scans raw in
  let config_findings =
    List.map
      (fun (line, what) ->
        {
          Rules.rule = "SRC00";
          severity = Check.Error;
          file = "lint.config";
          line;
          col = 0;
          message = "bad lint.config entry: " ^ what;
        })
      config_errors
  in
  let findings =
    List.sort Rules.compare_findings
      (live @ hygiene_findings ~scans @ config_findings)
  in
  { root; files = List.length files; units; findings; suppressed }

(* ---- filesystem walk ---------------------------------------------------- *)

let rec walk dir rel acc =
  let entries = Sys.readdir dir in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc name ->
      if String.length name = 0 || name.[0] = '.' || name = "_build" then acc
      else
        let path = Filename.concat dir name in
        let rel_path = if rel = "" then name else rel ^ "/" ^ name in
        if Sys.is_directory path then walk path rel_path acc
        else if
          Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
        then (path, rel_path) :: acc
        else acc)
    acc entries

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

type tree = {
  config : Suppress.config;
  config_errors : (int * string) list;
  sources : (string * string) list;
}

let load ?config_path ~root () =
  if not (Sys.file_exists root && Sys.is_directory root) then
    Error (Printf.sprintf "Engine.load: %s is not a directory" root)
  else begin
    let config, config_errors =
      let path =
        match config_path with
        | Some p -> Some p
        | None ->
            let p = Filename.concat root "lint.config" in
            if Sys.file_exists p then Some p else None
      in
      match path with
      | None -> ([], [])
      | Some p -> Suppress.parse_config (read_file p)
    in
    let files =
      List.concat_map
        (fun sub ->
          let dir = Filename.concat root sub in
          if Sys.file_exists dir && Sys.is_directory dir then
            List.rev (walk dir sub [])
          else [])
        default_subdirs
    in
    let files =
      List.sort
        (fun (_, a) (_, b) -> String.compare a b)
        files
    in
    let sources = List.map (fun (abs, rel) -> (rel, read_file abs)) files in
    Ok { config; config_errors; sources }
  end

(* ---- reporting ---------------------------------------------------------- *)

(* Fold the scan into the auditors' Check vocabulary: one evaluation per
   catalogue rule plus one violation per live finding, so `lint` renders
   and gates exactly like `check`. *)
let report ?(catalogue = Rules.catalogue) t =
  let ctx =
    Check.create
      ~subject:
        (Printf.sprintf "%s (%d files, %d typed units)" t.root t.files t.units)
  in
  List.iter
    (fun (f : Rules.finding) ->
      Check.violation ctx ~severity:f.severity ~id:f.rule
        (Printf.sprintf "%s:%d: %s" f.file f.line f.message))
    t.findings;
  List.iter
    (fun (id, _) ->
      let clean =
        not (List.exists (fun (f : Rules.finding) -> f.rule = id) t.findings)
      in
      if clean then Check.rule ctx ~id true (fun () -> ""))
    catalogue;
  Check.report ctx

let finding_to_json ?reason (f : Rules.finding) =
  let fields =
    [
      ("rule", Obs.Json.Str f.rule);
      ( "severity",
        Obs.Json.Str (Fmt.str "%a" Check.pp_severity f.severity) );
      ("file", Obs.Json.Str f.file);
      ("line", Obs.Json.Int f.line);
      ("col", Obs.Json.Int f.col);
      ("message", Obs.Json.Str f.message);
    ]
  in
  let fields =
    match reason with
    | None -> fields
    | Some r -> fields @ [ ("reason", Obs.Json.Str r) ]
  in
  Obs.Json.Obj fields

let to_json t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str schema_version);
      ("root", Obs.Json.Str t.root);
      ("files", Obs.Json.Int t.files);
      ("units", Obs.Json.Int t.units);
      ("findings", Obs.Json.Arr (List.map (finding_to_json ?reason:None) t.findings));
      ( "suppressed",
        Obs.Json.Arr
          (List.map
             (fun (f, reason) -> finding_to_json ~reason f)
             t.suppressed) );
    ]
