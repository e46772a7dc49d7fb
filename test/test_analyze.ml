(* The domain-safety rules (lib/analysis_dom) behind `hypartition lint`:
   every DOM rule must fire on its fixture at the exact line, fall
   silent on the compliant mutation, and obey the shared suppression
   machinery.  Every rule test runs the real pipeline on the typed front:
   the files are written into a temp tree, each .mli then each .ml is
   compiled there with `ocamlc -bin-annot` (a source that does not
   compile gets no .cmt), and [Driver.run] lints the tree — harvest,
   classification, call graph, effects — over the .cmt files. *)

module AD = Analysis_dom
module L = Lint
module C = Analysis_core.Check

(* Built by concatenation so the repo linter's line-based marker scan
   never sees a complete marker inside this test's own source. *)
let marker rest = "(* hyp" ^ "lint: " ^ rest ^ " *)"

let em_dash = "\xe2\x80\x94"

let read_file path = In_channel.with_open_bin path In_channel.input_all
let fixture name =
  read_file (Filename.concat (Repo_file.path "test/fixtures/dom") name)

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

let with_temp_tree f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hypartition_dom_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Lint a tree of (root-relative path, content) files — sources, and
   optionally lint.config or analysis/effects.json — after compiling
   its sources in place. *)
let analyze ?entries files =
  with_temp_tree (fun root ->
      List.iter
        (fun (path, content) ->
          let abs = Filename.concat root path in
          mkdir_p (Filename.dirname abs);
          write_file abs content)
        files;
      let compile suffix =
        List.iter
          (fun (path, _) ->
            if Filename.check_suffix path suffix then
              ignore
                (Sys.command
                   (Printf.sprintf
                      "cd %s && ocamlc -bin-annot -w -a -I %s -c %s 2>/dev/null"
                      (Filename.quote root)
                      (Filename.quote (Filename.dirname path))
                      (Filename.quote path))
                  : int))
          files
      in
      compile ".mli";
      compile ".ml";
      match AD.Driver.run ?entries ~build_dir:root ~root () with
      | Ok r -> r
      | Error e -> Alcotest.fail e)

let report (r : AD.Driver.result) =
  L.Engine.report ~catalogue:AD.Driver.catalogue r.lint

let find_all ~rule (r : AD.Driver.result) =
  List.filter
    (fun (f : L.Rules.finding) -> String.equal f.rule rule)
    r.lint.L.Engine.findings

let fires ~rule ~file ~line (r : AD.Driver.result) =
  List.exists
    (fun (f : L.Rules.finding) ->
      String.equal f.rule rule && String.equal f.file file && f.line = line)
    r.lint.L.Engine.findings

let check_fires name ~rule ~file ~line r =
  if not (fires ~rule ~file ~line r) then
    Alcotest.failf "%s: expected %s at %s:%d, report was\n%s" name rule file
      line
      (C.to_string (report r))

let check_silent name ~rule r =
  match find_all ~rule r with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%s: unexpected %s at %s:%d" name rule f.L.Rules.file
        f.L.Rules.line

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  nn > 0 && go 0

(* ---- catalogue and the shared --rules renderer -------------------------- *)

let test_catalogue () =
  (* DOM10 (Parsetree-front unknown) is retired with that front *)
  Alcotest.(check (list string))
    "stable rule ids"
    [
      "DOM00"; "DOM01"; "DOM02"; "DOM03"; "DOM04"; "DOM05"; "DOM06"; "DOM07";
      "DOM08"; "DOM09"; "DOM11";
    ]
    (List.map fst AD.Dom_rules.catalogue);
  (* one verb, one catalogue: the SRC rules, then the DOM rules *)
  Alcotest.(check (list string))
    "lint enforces both rule sets"
    (List.map fst (L.catalogue @ AD.Dom_rules.catalogue))
    (List.map fst AD.Driver.catalogue);
  let dom = L.Rules.render_catalogue AD.Driver.catalogue in
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool) (id ^ " rendered") true (contains dom (id ^ " ")))
    AD.Driver.catalogue;
  (* every rendered line carries the introducing PR (the since column) *)
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool)
        (id ^ " has since") true
        (contains dom (Printf.sprintf "%-8s %-6s" id (L.Rules.since id))))
    AD.Dom_rules.catalogue;
  Alcotest.(check string) "DOM01 since" "PR6" (L.Rules.since "DOM01");
  Alcotest.(check string) "DOM11 since" "PR8" (L.Rules.since "DOM11")

(* ---- DOM01: hot module-global mutable ----------------------------------- *)

let entries_for m = [ (m, "*") ]

let test_dom01 () =
  let path = "lib/x/dom01_hot_ref.ml" in
  let files = [ (path, fixture "dom01_hot_ref.ml"); (path ^ "i", "") ] in
  let r = analyze ~entries:(entries_for "Dom01_hot_ref") files in
  check_fires "hot ref" ~rule:"DOM01" ~file:path ~line:4 r;
  (* compliant mutation: the same state behind Atomic *)
  let ok =
    "let hits = Atomic.make 0\n\
     let solve x =\n\
    \  Atomic.incr hits;\n\
    \  x + Atomic.get hits\n"
  in
  let r =
    analyze
      ~entries:(entries_for "Dom01_hot_ref")
      [ (path, ok); (path ^ "i", "") ]
  in
  check_silent "atomic is safe" ~rule:"DOM01" r;
  (* cold mutation: the global exists but no hot function touches it *)
  let cold = "let hits = ref 0\n" in
  let r =
    analyze
      ~entries:(entries_for "Dom01_hot_ref")
      [ (path, cold); (path ^ "i", "") ]
  in
  check_silent "cold global is inventory-only" ~rule:"DOM01" r

(* ---- DOM02: Workspace ownership/escape ---------------------------------- *)

let test_dom02 () =
  let path = "lib/x/dom02_workspace_escape.ml" in
  let files = [ (path, fixture "dom02_workspace_escape.ml"); (path ^ "i", "") ] in
  let r = analyze ~entries:(entries_for "Dom02_workspace_escape") files in
  check_fires "escape via :=" ~rule:"DOM02" ~file:path ~line:12 r;
  (* a module-global Workspace binding is an escape in itself *)
  let global =
    "module Workspace = struct\n\
    \  type t = { mutable marks : int array }\n\n\
    \  let create n = { marks = Array.make n 0 }\n\
     end\n\n\
     let shared = Workspace.create 8\n"
  in
  let r =
    analyze
      ~entries:(entries_for "Dom02_workspace_escape")
      [ (path, global); (path ^ "i", "") ]
  in
  check_fires "module-global workspace" ~rule:"DOM02" ~file:path ~line:7 r;
  (* compliant: created, used, dropped inside the solve *)
  let ok =
    "module Workspace = struct\n\
    \  type t = { mutable marks : int array }\n\n\
    \  let create n = { marks = Array.make n 0 }\n\
     end\n\n\
     let solve n =\n\
    \  let ws = Workspace.create n in\n\
    \  Array.length ws.Workspace.marks\n"
  in
  let r =
    analyze
      ~entries:(entries_for "Dom02_workspace_escape")
      [ (path, ok); (path ^ "i", "") ]
  in
  check_silent "confined workspace" ~rule:"DOM02" r

(* ---- DOM03: shared PRNG state ------------------------------------------- *)

let test_dom03 () =
  let path = "lib/x/dom03_global_random.ml" in
  let files = [ (path, fixture "dom03_global_random.ml"); (path ^ "i", "") ] in
  let r = analyze files in
  check_fires "global Random" ~rule:"DOM03" ~file:path ~line:3 r;
  (* a module-global Rng is shared state even without Random.* calls *)
  let global_rng =
    "module Rng : sig\n\
    \  type t\n\n\
    \  val create : int -> t\n\
     end = struct\n\
    \  type t = int ref\n\n\
    \  let create s = ref s\n\
     end\n\n\
     let default = Rng.create 1\n"
  in
  let r = analyze [ (path, global_rng); (path ^ "i", "") ] in
  check_fires "module-global rng" ~rule:"DOM03" ~file:path ~line:11 r;
  (* compliant: explicit state threading *)
  let ok = "let jitter state n = n + (state mod 3)\n" in
  let r = analyze [ (path, ok); (path ^ "i", "") ] in
  check_silent "explicit state" ~rule:"DOM03" r;
  (* bin/ may seed however it likes — the rule covers lib/ only *)
  let r = analyze [ ("bin/x.ml", fixture "dom03_global_random.ml") ] in
  check_silent "bin exempt" ~rule:"DOM03" r

(* ---- DOM04: per-event obs emission in a hot loop ------------------------ *)

let test_dom04 () =
  let path = "lib/x/dom04_loop_emit.ml" in
  let files = [ (path, fixture "dom04_loop_emit.ml"); (path ^ "i", "") ] in
  let r = analyze ~entries:(entries_for "Dom04_loop_emit") files in
  check_fires "incr in loop" ~rule:"DOM04" ~file:path ~line:14 r;
  (* compliant: local accumulator, one flush after the loop *)
  let ok =
    "module Counter = struct\n\
    \  let incr _ = ()\n\n\
    \  let add _ _ = ()\n\
     end\n\n\
     let c_steps = 0\n\n\
     let walk n =\n\
    \  let steps = ref 0 in\n\
    \  for _ = 1 to n do\n\
    \    incr steps\n\
    \  done;\n\
    \  Counter.add c_steps !steps\n"
  in
  let r =
    analyze ~entries:(entries_for "Dom04_loop_emit")
      [ (path, ok); (path ^ "i", "") ]
  in
  check_silent "batched flush" ~rule:"DOM04" r;
  (* a cold function may emit per-event (the engine pool does) *)
  let r = analyze ~entries:[ ("Elsewhere", "*") ] files in
  check_silent "cold emitter" ~rule:"DOM04" r

(* ---- DOM05: toplevel Hashtbl in a hot-path module ----------------------- *)

let test_dom05 () =
  let hot_path = "lib/solvers/dom05_toplevel_hashtbl.ml" in
  let src = fixture "dom05_toplevel_hashtbl.ml" in
  let r =
    analyze
      ~entries:(entries_for "Dom05_toplevel_hashtbl")
      [ (hot_path, src); (hot_path ^ "i", "") ]
  in
  check_fires "hashtbl in solvers" ~rule:"DOM05" ~file:hot_path ~line:4 r;
  check_silent "DOM05 subsumes DOM01 here" ~rule:"DOM01" r;
  (* the same module outside the hot directories is DOM01 territory *)
  let cold_path = "lib/x/dom05_toplevel_hashtbl.ml" in
  let r =
    analyze
      ~entries:(entries_for "Dom05_toplevel_hashtbl")
      [ (cold_path, src); (cold_path ^ "i", "") ]
  in
  check_silent "not a hot dir" ~rule:"DOM05" r;
  check_fires "plain DOM01 instead" ~rule:"DOM01" ~file:cold_path ~line:4 r

(* ---- DOM06: mutable globals without a sealing .mli ---------------------- *)

let test_dom06 () =
  let path = "lib/x/dom06_unsealed.ml" in
  let src = fixture "dom06_unsealed.ml" in
  let r = analyze [ (path, src) ] in
  check_fires "unsealed" ~rule:"DOM06" ~file:path ~line:3 r;
  let r = analyze [ (path, src); (path ^ "i", "val total : int ref\n") ] in
  check_silent "sealed" ~rule:"DOM06" r

(* ---- DOM07: shared-mutating function on the hot path -------------------- *)

let test_dom07 () =
  let path = "lib/x/dom07_shared_writer.ml" in
  let files = [ (path, fixture "dom07_shared_writer.ml"); (path ^ "i", "") ] in
  let r = analyze ~entries:(entries_for "Dom07_shared_writer") files in
  (* the finding lands on the leaf writer, not on every caller *)
  check_fires "leaf writer" ~rule:"DOM07" ~file:path ~line:6 r;
  Alcotest.(check int) "exactly one DOM07" 1 (List.length (find_all ~rule:"DOM07" r));
  (* the effect analysis classified both functions and built the chain *)
  (match AD.Effects.find r.AD.Driver.effects "Dom07_shared_writer.solve" with
  | None -> Alcotest.fail "solve not in the effect table"
  | Some i ->
      Alcotest.(check string)
        "caller classified" "shared_mutating"
        (AD.Effects.classification_to_string i.AD.Effects.e_class);
      Alcotest.(check bool)
        "caller is not a direct writer" true
        (i.AD.Effects.e_direct_writes = []));
  (* the --effects witness names the minimal chain to the leaf *)
  let w = AD.Effects.render_witnesses r.AD.Driver.effects in
  Alcotest.(check bool)
    "witness chain" true
    (contains w
       "writes Dom07_shared_writer.total via Dom07_shared_writer.solve -> \
        Dom07_shared_writer.note");
  (* compliant: the accumulator threads through, nothing global *)
  let ok = "let note acc n = acc + n\n\nlet solve x = note 0 x\n" in
  let r =
    analyze
      ~entries:(entries_for "Dom07_shared_writer")
      [ (path, ok); (path ^ "i", "") ]
  in
  check_silent "threaded accumulator" ~rule:"DOM07" r;
  (* cold writer: same body, no entry point reaches it *)
  let r = analyze ~entries:[ ("Elsewhere", "*") ] files in
  check_silent "cold writer" ~rule:"DOM07" r

(* ---- DOM08: Workspace interior escaping --------------------------------- *)

let test_dom08 () =
  let path = "lib/x/dom08_ws_interior.ml" in
  let files = [ (path, fixture "dom08_ws_interior.ml"); (path ^ "i", "") ] in
  let r = analyze ~entries:(entries_for "Dom08_ws_interior") files in
  check_fires "interior store" ~rule:"DOM08" ~file:path ~line:13 r;
  (* compliant: the projection is used and dropped inside the solve *)
  let ok =
    "module Workspace = struct\n\
    \  type t = { mutable marks : int array }\n\n\
    \  let create n = { marks = Array.make n 0 }\n\
     end\n\n\
     let solve (ws : Workspace.t) n =\n\
    \  Array.length ws.Workspace.marks + n\n"
  in
  let r =
    analyze
      ~entries:(entries_for "Dom08_ws_interior")
      [ (path, ok); (path ^ "i", "") ]
  in
  check_silent "confined projection" ~rule:"DOM08" r

(* ---- DOM09: unknown effects through an unanalyzed external -------------- *)

let test_dom09 () =
  let path = "lib/x/dom09_external_unknown.ml" in
  let files = [ (path, fixture "dom09_external_unknown.ml"); (path ^ "i", "") ] in
  let r = analyze ~entries:(entries_for "Dom09_external_unknown") files in
  check_fires "external widens" ~rule:"DOM09" ~file:path ~line:4 r;
  (match find_all ~rule:"DOM09" r with
  | [ f ] ->
      Alcotest.(check bool) "an error" true (f.L.Rules.severity = C.Error);
      Alcotest.(check bool)
        "names the external" true
        (contains f.L.Rules.message "Sys.getenv")
  | l -> Alcotest.failf "expected one DOM09, got %d" (List.length l));
  (* a benign external does not widen *)
  let ok = "let solve xs = List.length xs\n" in
  let r =
    analyze
      ~entries:(entries_for "Dom09_external_unknown")
      [ (path, ok); (path ^ "i", "") ]
  in
  check_silent "benign external" ~rule:"DOM09" r

(* ---- DOM11: certificate staleness --------------------------------------- *)

let certificate_path = "analysis/effects.json"

let test_dom11 () =
  let path = "lib/x/dom07_shared_writer.ml" in
  let files = [ (path, fixture "dom07_shared_writer.ml"); (path ^ "i", "") ] in
  let entries = entries_for "Dom07_shared_writer" in
  let with_certificate ?(extra = []) cert =
    analyze ~entries (files @ ((certificate_path, cert) :: extra))
  in
  let fresh = AD.Effects.certificate (analyze ~entries files).AD.Driver.effects in
  (* a fresh certificate passes *)
  check_silent "fresh certificate" ~rule:"DOM11" (with_certificate fresh);
  let replace ~needle ~by hay =
    let nh = String.length hay and nn = String.length needle in
    let buf = Buffer.create nh in
    let i = ref 0 in
    while !i < nh do
      if !i + nn <= nh && String.sub hay !i nn = needle then begin
        Buffer.add_string buf by;
        i := !i + nn
      end
      else begin
        Buffer.add_char buf hay.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  (* one line per entry point: flipping both certified classifications
     is one stale finding per entry, each at its own line *)
  let stale =
    replace ~needle:"\"classification\":\"shared_mutating\""
      ~by:"\"classification\":\"pure\"" fresh
  in
  let r = with_certificate stale in
  check_fires "stale note" ~rule:"DOM11" ~file:certificate_path ~line:4 r;
  check_fires "stale solve" ~rule:"DOM11" ~file:certificate_path ~line:5 r;
  Alcotest.(check int) "one finding per entry" 2
    (List.length (find_all ~rule:"DOM11" r));
  (* an entry point the certificate lacks *)
  let lines = String.split_on_char '\n' fresh in
  let dropped = String.concat "\n" (List.filteri (fun i _ -> i <> 3) lines) in
  let r = with_certificate dropped in
  check_fires "missing entry" ~rule:"DOM11" ~file:certificate_path ~line:1 r;
  Alcotest.(check bool)
    "names the entry" true
    (List.exists
       (fun (f : L.Rules.finding) ->
         contains f.message "Dom07_shared_writer.note")
       (find_all ~rule:"DOM11" r));
  (* an unparseable or wrong-schema document is a single finding, not a
     crash *)
  Alcotest.(check int) "one parse finding" 1
    (List.length (find_all ~rule:"DOM11" (with_certificate "{ nope")));
  Alcotest.(check int) "one schema finding" 1
    (List.length
       (find_all ~rule:"DOM11"
          (with_certificate
             (replace ~needle:AD.Effects.schema_version
                ~by:"hypartition-effects/1" fresh))));
  (* DOM11 obeys the shared suppression machinery *)
  let r =
    with_certificate
      ~extra:
        [
          ( "lint.config",
            "allow DOM11 analysis/effects.json " ^ em_dash
            ^ " regenerating in this same PR\n" );
        ]
      stale
  in
  check_silent "suppressed staleness" ~rule:"DOM11" r;
  Alcotest.(check bool)
    "reason recorded" true
    (List.exists
       (fun ((f : L.Rules.finding), reason) ->
         f.rule = "DOM11" && reason = "regenerating in this same PR")
       r.lint.L.Engine.suppressed)

(* ---- DOM00 and suppression ---------------------------------------------- *)

(* A source no .cmt covers is one the DOM rules cannot see: an error,
   whether it does not parse or only does not compile. *)
let test_dom00_parse_error () =
  let path = "lib/x/broken.ml" in
  let r = analyze [ (path, "let = = =\n") ] in
  check_fires "unparseable" ~rule:"DOM00" ~file:path ~line:1 r;
  check_fires "SRC00 reports the syntax error" ~rule:"SRC00" ~file:path ~line:1
    r;
  let path = "lib/x/ill_typed.ml" in
  let r = analyze [ (path, "let x : int = \"s\"\n"); (path ^ "i", "") ] in
  check_fires "no .cmt" ~rule:"DOM00" ~file:path ~line:1 r;
  Alcotest.(check bool) "the gate fails" true (C.exit_code (report r) <> 0);
  (match find_all ~rule:"DOM00" r with
  | [ f ] ->
      Alcotest.(check bool)
        "says how to fix it" true
        (contains f.L.Rules.message "dune build @check")
  | l -> Alcotest.failf "expected one DOM00, got %d" (List.length l));
  (* bin/ is covered too; test/ is not *)
  let r = analyze [ ("bin/x.ml", "let x : int = \"s\"\n") ] in
  check_fires "bin source" ~rule:"DOM00" ~file:"bin/x.ml" ~line:1 r;
  let r = analyze [ ("test/x.ml", "let x : int = \"s\"\n") ] in
  check_silent "test/ is SRC-only" ~rule:"DOM00" r

let test_suppression () =
  let path = "lib/x/dom01_hot_ref.ml" in
  let body = fixture "dom01_hot_ref.ml" in
  (* inline marker directly above the flagged line *)
  let with_marker =
    let lines = String.split_on_char '\n' body in
    let rec inject = function
      | [] -> []
      | l :: rest ->
          if String.length l >= 7 && String.sub l 0 7 = "let hit" then
            (marker ("allow DOM01 " ^ em_dash ^ " single-domain test gate"))
            :: l :: rest
          else l :: inject rest
    in
    String.concat "\n" (inject lines)
  in
  let r =
    analyze
      ~entries:(entries_for "Dom01_hot_ref")
      [ (path, with_marker); (path ^ "i", "") ]
  in
  check_silent "marker suppresses" ~rule:"DOM01" r;
  (match r.lint.L.Engine.suppressed with
  | [ (f, reason) ] ->
      Alcotest.(check string) "rule" "DOM01" f.L.Rules.rule;
      Alcotest.(check string) "reason" "single-domain test gate" reason
  | l -> Alcotest.failf "expected one suppressed finding, got %d" (List.length l));
  (* lint.config entry with a reason *)
  let config = "allow DOM01 lib/x " ^ em_dash ^ " confined by the test harness\n" in
  let r =
    analyze
      ~entries:(entries_for "Dom01_hot_ref")
      [ (path, body); (path ^ "i", ""); ("lint.config", config) ]
  in
  check_silent "config parses" ~rule:"SRC00" r;
  check_silent "config suppresses" ~rule:"DOM01" r;
  Alcotest.(check int) "suppressed recorded" 1
    (List.length r.lint.L.Engine.suppressed)

let test_stale_dom_marker () =
  let path = "lib/x/clean.ml" in
  let src =
    marker ("allow DOM01 " ^ em_dash ^ " nothing here anymore") ^ "\nlet x = 1\n"
  in
  let r = analyze [ (path, src); (path ^ "i", "") ] in
  check_fires "stale DOM marker" ~rule:"DOM00" ~file:path ~line:1 r;
  (* an unused SRC-only marker is SRC00's to report *)
  let src =
    marker ("allow SRC03 " ^ em_dash ^ " printing moved away") ^ "\nlet x = 1\n"
  in
  let r = analyze [ (path, src); (path ^ "i", "") ] in
  check_silent "SRC markers not ours" ~rule:"DOM00" r;
  check_fires "SRC00 owns it" ~rule:"SRC00" ~file:path ~line:1 r

(* One stale-marker pass: an unused DOM-only marker is one DOM00
   warning, never an SRC00 as well — also through the SRC-only pipeline
   the SRC fixture tests drive. *)
let test_lint_ignores_dom_markers () =
  let path = "lib/x/clean.ml" in
  let src =
    marker ("allow DOM01 " ^ em_dash ^ " analyzer-owned suppression")
    ^ "\nlet x = 1\n"
  in
  let r =
    L.Engine.lint_sources ~root:"." [ (path, src); (path ^ "i", "") ]
  in
  let count rule =
    List.length
      (List.filter
         (fun (f : L.Rules.finding) -> String.equal f.rule rule)
         r.L.Engine.findings)
  in
  Alcotest.(check int) "no SRC00 for DOM markers" 0 (count "SRC00");
  Alcotest.(check int) "one DOM00" 1 (count "DOM00")

(* ---- determinism -------------------------------------------------------- *)

let test_determinism () =
  let files =
    [
      ("lib/x/dom01_hot_ref.ml", fixture "dom01_hot_ref.ml");
      ("lib/x/dom02_workspace_escape.ml", fixture "dom02_workspace_escape.ml");
      ("lib/x/dom03_global_random.ml", fixture "dom03_global_random.ml");
      ("lib/solvers/dom05_toplevel_hashtbl.ml", fixture "dom05_toplevel_hashtbl.ml");
      ("lib/x/dom07_shared_writer.ml", fixture "dom07_shared_writer.ml");
    ]
  in
  let entries = [ ("Dom01_hot_ref", "*"); ("Dom07_shared_writer", "*") ] in
  let run () =
    let r = analyze ~entries files in
    ( Obs.Json.to_string (L.Engine.to_json r.lint),
      AD.Effects.certificate r.AD.Driver.effects )
  in
  let j1, c1 = run () in
  let j2, c2 = run () in
  Alcotest.(check string) "lint --format json byte-match" j1 j2;
  Alcotest.(check string) "effects certificate byte-match" c1 c2;
  (* one line per entry point, between a three-line head and a two-line
     tail *)
  Alcotest.(check int) "certificate lines" (3 + 3 + 2)
    (List.length (String.split_on_char '\n' (String.trim c1)));
  match Obs.Json.parse c1 with
  | Ok j ->
      let schema =
        Option.bind (Obs.Json.member "schema" j) Obs.Json.get_str
      in
      Alcotest.(check (option string))
        "certificate schema"
        (Some "hypartition-effects/2") schema
  | Error e -> Alcotest.failf "certificate does not re-parse: %s" e

(* ---- the typed front, end to end over real .cmt files ------------------- *)

let typed_fixture_main =
  "type counter = { mutable n : int }\n\n\
   type t = counter\n\n\
   let c : t = { n = 0 }\n\n\
   let bump () = c.n <- c.n + 1\n"

let typed_fixture_ws =
  "module Workspace = struct\n\
  \  type t = { mutable marks : int array }\n\n\
  \  let create n = { marks = Array.make n 0 }\n\
   end\n\n\
   let acquire n = Workspace.create n\n"

(* [fetch]'s only effect is an unanalyzed external (Sys.getenv): DOM09,
   an error; [pick] stays pure through the benign allowlist
   (String.length). *)
let typed_fixture_ext =
  "let fetch name = Sys.getenv name\n\nlet pick s = String.length s\n"

let test_typed_front () =
  let r =
    analyze
      ~entries:
        [ ("Dom_typed", "*"); ("Dom_typed_ws", "*"); ("Dom_typed_ext", "*") ]
      [
        ("lib/fix/dom_typed.ml", typed_fixture_main);
        ("lib/fix/dom_typed_ws.ml", typed_fixture_ws);
        ("lib/fix/dom_typed_ext.ml", typed_fixture_ext);
      ]
  in
  Alcotest.(check int) "all units typed" 3 r.lint.L.Engine.units;
  (* the harvest saw through the `t = counter` alias to the mutable
     record — classification no syntax pass can make *)
  check_fires "DOM01 via harvest" ~rule:"DOM01" ~file:"lib/fix/dom_typed.ml"
    ~line:5 r;
  (* the principal type of [acquire] mentions Workspace.t even though
     the source never writes the type *)
  check_fires "DOM02 via inferred return type" ~rule:"DOM02"
    ~file:"lib/fix/dom_typed_ws.ml" ~line:7 r;
  (* unsealed units with unsafe globals: DOM06 from the cmt *)
  check_fires "DOM06 from typed unit" ~rule:"DOM06"
    ~file:"lib/fix/dom_typed.ml" ~line:5 r;
  check_fires "DOM09 from typed unit" ~rule:"DOM09"
    ~file:"lib/fix/dom_typed_ext.ml" ~line:1 r;
  (* the benign allowlist keeps the sibling pure *)
  match AD.Effects.find r.AD.Driver.effects "Dom_typed_ext.pick" with
  | Some i ->
      Alcotest.(check string)
        "pick stays pure" "pure"
        (AD.Effects.classification_to_string i.AD.Effects.e_class)
  | None -> Alcotest.fail "pick not in the effect table"

(* ---- docs stay in sync with both catalogues ----------------------------- *)

let test_docs_in_sync () =
  let readme = read_file (Repo_file.path "README.md") in
  let design = read_file (Repo_file.path "DESIGN.md") in
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool) ("README mentions " ^ id) true (contains readme id);
      Alcotest.(check bool) ("DESIGN mentions " ^ id) true (contains design id))
    AD.Driver.catalogue

let suite =
  [
    Alcotest.test_case "catalogue + shared renderer" `Quick test_catalogue;
    Alcotest.test_case "DOM01 hot mutable global" `Quick test_dom01;
    Alcotest.test_case "DOM02 workspace escape" `Quick test_dom02;
    Alcotest.test_case "DOM03 shared PRNG" `Quick test_dom03;
    Alcotest.test_case "DOM04 loop emission" `Quick test_dom04;
    Alcotest.test_case "DOM05 hot-dir hashtbl" `Quick test_dom05;
    Alcotest.test_case "DOM06 unsealed mutable" `Quick test_dom06;
    Alcotest.test_case "DOM07 hot shared writer" `Quick test_dom07;
    Alcotest.test_case "DOM08 workspace interior escape" `Quick test_dom08;
    Alcotest.test_case "DOM09 unanalyzed external" `Quick test_dom09;
    Alcotest.test_case "DOM11 certificate staleness" `Quick test_dom11;
    Alcotest.test_case "DOM00 parse error" `Quick test_dom00_parse_error;
    Alcotest.test_case "suppression with reasons" `Quick test_suppression;
    Alcotest.test_case "stale DOM markers" `Quick test_stale_dom_marker;
    Alcotest.test_case "lint ignores DOM markers" `Quick
      test_lint_ignores_dom_markers;
    Alcotest.test_case "JSON determinism" `Quick test_determinism;
    Alcotest.test_case "typed front end-to-end" `Quick test_typed_front;
    Alcotest.test_case "docs in sync" `Quick test_docs_in_sync;
  ]
