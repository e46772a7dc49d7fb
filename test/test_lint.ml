(* hyplint (lib/lint): every rule must fire on a fixture source at the
   exact line, stay quiet on the compliant variant, and fall silent under
   an inline marker or a lint.config allowlist entry — with the
   suppression hygiene (reasons required, stale markers flagged) itself
   under test.  Fixtures are in-memory (path, source) pairs driven
   through the filesystem-free [Lint.Engine.lint_sources]. *)

module L = Lint
module C = Analysis_core.Check

(* Built by concatenation so the repo linter's line-based marker scan
   never sees a complete marker inside this test's own source. *)
let marker rest = "(* hyp" ^ "lint: " ^ rest ^ " *)"

let em_dash = "\xe2\x80\x94"

(* A lib/ fixture needs a sibling .mli or SRC07 joins the findings. *)
let sealed path source = [ (path, source); (path ^ "i", "") ]

let lint ?config ?config_errors files =
  L.Engine.lint_sources ?config ?config_errors ~root:"." files

let find_all ~rule r =
  List.filter
    (fun (f : L.Rules.finding) -> String.equal f.rule rule)
    r.L.Engine.findings

let fires ~rule ~file ~line r =
  List.exists
    (fun (f : L.Rules.finding) ->
      String.equal f.rule rule && String.equal f.file file && f.line = line)
    r.L.Engine.findings

let check_fires name ~rule ~file ~line r =
  if not (fires ~rule ~file ~line r) then
    Alcotest.failf "%s: expected %s at %s:%d, report was\n%s" name rule file
      line
      (C.to_string (L.Engine.report r))

let check_silent name ~rule r =
  match find_all ~rule r with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%s: unexpected %s at %s:%d" name rule f.L.Rules.file
        f.L.Rules.line

(* ---- catalogue ---------------------------------------------------------- *)

let test_catalogue () =
  let ids = List.map fst L.catalogue in
  Alcotest.(check (list string))
    "stable rule ids"
    [
      "SRC00"; "SRC01"; "SRC02"; "SRC03"; "SRC04"; "SRC05"; "SRC06"; "SRC07";
      "SRC08"; "SRC09"; "SRC10"; "SRC11"; "SRC12";
    ]
    ids;
  List.iter
    (fun (_, what) -> Alcotest.(check bool) "documented" true (what <> ""))
    L.catalogue;
  (* the rendered catalogue carries the introducing PR per rule *)
  let rendered = L.Rules.render_catalogue L.catalogue in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn > 0 && go 0
  in
  Alcotest.(check string) "SRC01 since" "PR3" (L.Rules.since "SRC01");
  Alcotest.(check string) "SRC08 since" "PR4" (L.Rules.since "SRC08");
  Alcotest.(check string) "SRC09 since" "PR5" (L.Rules.since "SRC09");
  Alcotest.(check string) "SRC10 since" "PR7" (L.Rules.since "SRC10");
  Alcotest.(check string) "SRC11 since" "PR8" (L.Rules.since "SRC11");
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool)
        (id ^ " rendered with since") true
        (contains rendered (Printf.sprintf "%-8s %-6s" id (L.Rules.since id))))
    L.catalogue

(* ---- SRC01: polymorphic compare ----------------------------------------- *)

let test_src01 () =
  let r =
    lint
      (sealed "lib/a/fix.ml"
         "let xs = [ 3; 1 ]\nlet sorted = List.sort compare xs\n")
  in
  check_fires "compare" ~rule:"SRC01" ~file:"lib/a/fix.ml" ~line:2 r;
  let r = lint (sealed "lib/a/fix.ml" "let h x = Hashtbl.hash x\n") in
  check_fires "hash" ~rule:"SRC01" ~file:"lib/a/fix.ml" ~line:1 r;
  let r =
    lint
      (sealed "lib/a/fix.ml"
         "let xs = [ 3; 1 ]\nlet sorted = List.sort Int.compare xs\n")
  in
  check_silent "Int.compare is fine" ~rule:"SRC01" r

(* ---- SRC02: append/nth inside iteration --------------------------------- *)

let test_src02 () =
  let r =
    lint
      (sealed "lib/a/fix.ml"
         "let cat a b = a @ b\nlet f xs = List.map (fun x -> [ x ] @ xs) xs\n")
  in
  check_fires "append in callback" ~rule:"SRC02" ~file:"lib/a/fix.ml" ~line:2 r;
  Alcotest.(check int) "top-level append is fine" 1
    (List.length (find_all ~rule:"SRC02" r));
  let r =
    lint
      (sealed "lib/a/fix.ml"
         "let f xs =\n\
          \  for i = 0 to 3 do ignore (List.nth xs i) done;\n\
          \  List.nth xs 0\n")
  in
  check_fires "nth in for loop" ~rule:"SRC02" ~file:"lib/a/fix.ml" ~line:2 r;
  Alcotest.(check int) "nth outside the loop is fine" 1
    (List.length (find_all ~rule:"SRC02" r))

(* ---- SRC03: printing from library code ---------------------------------- *)

let test_src03 () =
  let source = "let shout () = print_endline \"loud\"\n" in
  let r = lint (sealed "lib/a/fix.ml" source) in
  check_fires "print in lib/" ~rule:"SRC03" ~file:"lib/a/fix.ml" ~line:1 r;
  let r = lint [ ("test/fix.ml", source) ] in
  check_silent "printing from tests is fine" ~rule:"SRC03" r

(* ---- SRC04: the removed time_it ----------------------------------------- *)

let test_src04 () =
  let r =
    lint (sealed "lib/a/fix.ml" "let time g = Support.Util.time_it g\n")
  in
  check_fires "time_it" ~rule:"SRC04" ~file:"lib/a/fix.ml" ~line:1 r

(* ---- SRC05: raise-message prefixes -------------------------------------- *)

let test_src05 () =
  let r = lint (sealed "lib/a/fix.ml" "let f () = failwith \"boom\"\n") in
  check_fires "bare failwith" ~rule:"SRC05" ~file:"lib/a/fix.ml" ~line:1 r;
  let r =
    lint
      (sealed "lib/a/fix.ml"
         "let f x = invalid_arg (Printf.sprintf \"bad %d\" x)\n")
  in
  check_fires "sprintf literal" ~rule:"SRC05" ~file:"lib/a/fix.ml" ~line:1 r;
  let r =
    lint
      (sealed "lib/a/fix.ml"
         "let f () = raise (Invalid_argument \"nope\")\n")
  in
  check_fires "raise Invalid_argument" ~rule:"SRC05" ~file:"lib/a/fix.ml"
    ~line:1 r;
  let r =
    lint
      (sealed "lib/a/fix.ml"
         "let f () = failwith \"Fix.f: boom\"\n\
          let g x = invalid_arg (Printf.sprintf \"Fix.g: bad %d\" x)\n")
  in
  check_silent "prefixed messages are fine" ~rule:"SRC05" r

(* ---- SRC06: Obj.magic --------------------------------------------------- *)

let test_src06 () =
  let r = lint (sealed "lib/a/fix.ml" "let coerce x = Obj.magic x\n") in
  check_fires "Obj.magic" ~rule:"SRC06" ~file:"lib/a/fix.ml" ~line:1 r

(* ---- SRC07: missing interfaces ------------------------------------------ *)

let test_src07 () =
  let source = "let answer = 42\n" in
  let r = lint [ ("lib/a/fix.ml", source) ] in
  check_fires "unsealed library module" ~rule:"SRC07" ~file:"lib/a/fix.ml"
    ~line:1 r;
  let r = lint (sealed "lib/a/fix.ml" source) in
  check_silent "sealed module is fine" ~rule:"SRC07" r;
  let r = lint [ ("lib/a/root.ml", "module Fix = A.Fix\ninclude A.Fix\n") ] in
  check_silent "pure re-export root is exempt" ~rule:"SRC07" r;
  let r = lint [ ("bin/fix.ml", source) ] in
  check_silent "non-library code is exempt" ~rule:"SRC07" r

(* ---- SRC08: process management outside lib/engine ----------------------- *)

let test_src08 () =
  let source =
    "let f () =\n\
     \  match Unix.fork () with\n\
     \  | 0 -> exit 0\n\
     \  | pid ->\n\
     \      Unix.kill pid Sys.sigkill;\n\
     \      ignore (Unix.waitpid [] pid)\n"
  in
  let r = lint (sealed "lib/a/fix.ml" source) in
  check_fires "fork in a library" ~rule:"SRC08" ~file:"lib/a/fix.ml" ~line:2 r;
  check_fires "kill in a library" ~rule:"SRC08" ~file:"lib/a/fix.ml" ~line:5 r;
  check_fires "waitpid in a library" ~rule:"SRC08" ~file:"lib/a/fix.ml" ~line:6
    r;
  let r = lint [ ("bin/fix.ml", source) ] in
  check_fires "executables are covered too" ~rule:"SRC08" ~file:"bin/fix.ml"
    ~line:2 r;
  let r = lint (sealed "lib/engine/fix.ml" source) in
  check_silent "lib/engine owns process management" ~rule:"SRC08" r;
  let r =
    lint (sealed "lib/a/fix.ml" "let pid () = Unix.getpid ()\n")
  in
  check_silent "other Unix calls are fine" ~rule:"SRC08" r

(* ---- SRC09: polymorphic Hashtbl in hot-path modules --------------------- *)

let test_src09 () =
  let source =
    "let dedup keys =\n\
     \  let seen = Hashtbl.create 16 in\n\
     \  List.filter\n\
     \    (fun k ->\n\
     \      if Hashtbl.mem seen k then false\n\
     \      else begin\n\
     \        Hashtbl.add seen k ();\n\
     \        true\n\
     \      end)\n\
     \    keys\n"
  in
  let r = lint (sealed "lib/solvers/fix.ml" source) in
  check_fires "create in lib/solvers" ~rule:"SRC09" ~file:"lib/solvers/fix.ml"
    ~line:2 r;
  check_fires "mem in lib/solvers" ~rule:"SRC09" ~file:"lib/solvers/fix.ml"
    ~line:5 r;
  check_fires "add in lib/solvers" ~rule:"SRC09" ~file:"lib/solvers/fix.ml"
    ~line:7 r;
  let r = lint (sealed "lib/hypergraph/fix.ml" source) in
  check_fires "lib/hypergraph is hot path too" ~rule:"SRC09"
    ~file:"lib/hypergraph/fix.ml" ~line:2 r;
  (* Cold-path code may keep its polymorphic tables. *)
  let r = lint (sealed "lib/workloads/fix.ml" source) in
  check_silent "other libraries are exempt" ~rule:"SRC09" r;
  let r = lint [ ("bin/fix.ml", source) ] in
  check_silent "bin code is exempt" ~rule:"SRC09" r;
  (* Hashtbl.hash is SRC01's finding, not a duplicate SRC09. *)
  let r =
    lint (sealed "lib/solvers/fix.ml" "let h x = Hashtbl.hash x\n")
  in
  check_silent "Hashtbl.hash stays SRC01-only" ~rule:"SRC09" r;
  check_fires "Hashtbl.hash still fires SRC01" ~rule:"SRC01"
    ~file:"lib/solvers/fix.ml" ~line:1 r;
  (* A suppression with a written reason still works in the hot path. *)
  let src =
    marker ("allow SRC09 " ^ em_dash ^ " cold init path, not per-move")
    ^ "\nlet tbl () = Hashtbl.create 16\n"
  in
  let r = lint (sealed "lib/solvers/fix.ml" src) in
  check_silent "suppression with reason" ~rule:"SRC09" r

(* ---- SRC10: Gc use outside lib/obs -------------------------------------- *)

let test_src10 () =
  let source =
    "let words () = Gc.minor_words ()\n\
     let stat () = Gc.quick_stat ()\n"
  in
  let r = lint (sealed "lib/a/fix.ml" source) in
  check_fires "Gc in a library" ~rule:"SRC10" ~file:"lib/a/fix.ml" ~line:1 r;
  check_fires "Gc.quick_stat too" ~rule:"SRC10" ~file:"lib/a/fix.ml" ~line:2 r;
  let r = lint [ ("bin/fix.ml", source) ] in
  check_fires "executables are covered too" ~rule:"SRC10" ~file:"bin/fix.ml"
    ~line:1 r;
  let r = lint [ ("test/fix.ml", source) ] in
  check_fires "tests are covered too" ~rule:"SRC10" ~file:"test/fix.ml"
    ~line:1 r;
  let r =
    lint
      (sealed "lib/a/fix.ml"
         "let full () = Stdlib.Gc.full_major ()\n")
  in
  check_fires "Stdlib.Gc alias is covered" ~rule:"SRC10" ~file:"lib/a/fix.ml"
    ~line:1 r;
  let r = lint (sealed "lib/obs/fix.ml" source) in
  check_silent "lib/obs owns heap telemetry" ~rule:"SRC10" r;
  (* A suppression with a written reason still works elsewhere. *)
  let src =
    marker ("allow SRC10 " ^ em_dash ^ " one-shot heap probe in a fixture")
    ^ "\nlet words () = Gc.minor_words ()\n"
  in
  let r = lint (sealed "lib/a/fix.ml" src) in
  check_silent "suppression with reason" ~rule:"SRC10" r

(* ---- SRC11: multicore primitives outside designated modules ------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let src_fixture name =
  read_file (Filename.concat (Repo_file.path "test/fixtures/src") name)

let test_src11 () =
  let source = src_fixture "src11_domain_atomic.ml" in
  let r = lint (sealed "lib/a/fix.ml" source) in
  check_fires "Atomic.make" ~rule:"SRC11" ~file:"lib/a/fix.ml" ~line:6 r;
  check_fires "Domain.spawn" ~rule:"SRC11" ~file:"lib/a/fix.ml" ~line:9 r;
  check_fires "Atomic.set" ~rule:"SRC11" ~file:"lib/a/fix.ml" ~line:10 r;
  (* Domain.join on line 11 is not fenced — exactly the three above *)
  Alcotest.(check int) "three findings" 3 (List.length (find_all ~rule:"SRC11" r));
  let r =
    lint
      (sealed "lib/a/fix.ml"
         "let go f r = Stdlib.Domain.create f (Stdlib.Atomic.get r)\n")
  in
  check_fires "Stdlib-qualified forms" ~rule:"SRC11" ~file:"lib/a/fix.ml"
    ~line:1 r;
  Alcotest.(check int) "both qualified calls" 2
    (List.length (find_all ~rule:"SRC11" r));
  (* reading the current domain is not creating parallelism *)
  let r = lint (sealed "lib/a/fix.ml" "let me () = Domain.self ()\n") in
  check_silent "Domain.self is fine" ~rule:"SRC11" r;
  (* the designated module comes from lint.config, like the repo's own
     entry for the atomic debug counters *)
  let config, errs =
    L.Suppress.parse_config
      ("allow SRC11 lib/conc " ^ em_dash ^ " the designated concurrency module\n")
  in
  Alcotest.(check int) "config parses" 0 (List.length errs);
  let r = lint ~config (sealed "lib/conc/pool.ml" source) in
  check_silent "designated module" ~rule:"SRC11" r;
  Alcotest.(check int) "suppressions recorded" 3
    (List.length r.L.Engine.suppressed)

(* ---- SRC12: socket plumbing outside designated networking modules ------- *)

let test_src12 () =
  let source = src_fixture "src12_sockets.ml" in
  let r = lint (sealed "lib/a/fix.ml" source) in
  check_fires "Unix.socket" ~rule:"SRC12" ~file:"lib/a/fix.ml" ~line:8 r;
  check_fires "Unix.bind" ~rule:"SRC12" ~file:"lib/a/fix.ml" ~line:9 r;
  check_fires "Unix.listen" ~rule:"SRC12" ~file:"lib/a/fix.ml" ~line:10 r;
  check_fires "Unix.accept" ~rule:"SRC12" ~file:"lib/a/fix.ml" ~line:11 r;
  (* [dial]'s Unix.socket on line 14 also fires; its Unix.connect does
     not — consuming an endpoint is not fenced, owning one is. *)
  Alcotest.(check int) "five findings" 5
    (List.length (find_all ~rule:"SRC12" r));
  let r =
    lint
      (sealed "lib/a/fix.ml"
         "let go fd = Stdlib.Unix.listen fd 4\nlet l = UnixLabels.accept\n")
  in
  check_fires "Stdlib/Labels-qualified forms" ~rule:"SRC12"
    ~file:"lib/a/fix.ml" ~line:1 r;
  Alcotest.(check int) "both qualified calls" 2
    (List.length (find_all ~rule:"SRC12" r));
  (* the designated module comes from lint.config, like the repo's own
     entry for lib/server *)
  let config, errs =
    L.Suppress.parse_config
      ("allow SRC12 lib/server " ^ em_dash ^ " the designated networking module\n")
  in
  Alcotest.(check int) "config parses" 0 (List.length errs);
  let r = lint ~config (sealed "lib/server/fix.ml" source) in
  check_silent "designated module" ~rule:"SRC12" r;
  Alcotest.(check int) "suppressions recorded" 5
    (List.length r.L.Engine.suppressed)

(* ---- SRC00: parse errors ------------------------------------------------ *)

let test_parse_error () =
  let r = lint [ ("lib/a/fix.ml", "let f = (\n") ] in
  (match find_all ~rule:"SRC00" r with
  | [ f ] -> Alcotest.(check string) "pinned to the file" "lib/a/fix.ml" f.file
  | fs -> Alcotest.failf "expected one SRC00, got %d" (List.length fs));
  check_silent "no SRC07 piggybacks on a parse error" ~rule:"SRC07" r

(* ---- inline suppression ------------------------------------------------- *)

let test_inline_suppression () =
  let src =
    "let xs = [ 3; 1 ]\n"
    ^ marker ("allow SRC01 " ^ em_dash ^ " fixture keeps the slow sort")
    ^ "\nlet sorted = List.sort compare xs\n"
  in
  let r = lint (sealed "lib/a/fix.ml" src) in
  check_silent "marker silences the next line" ~rule:"SRC01" r;
  check_silent "a used marker is not stale" ~rule:"SRC00" r;
  (match r.L.Engine.suppressed with
  | [ (f, reason) ] ->
      Alcotest.(check string) "suppressed rule" "SRC01" f.L.Rules.rule;
      Alcotest.(check string)
        "reason recorded" "fixture keeps the slow sort" reason
  | l -> Alcotest.failf "expected one suppressed finding, got %d"
           (List.length l));
  (* The marker reaches exactly one line: a finding two lines below
     stays live. *)
  let src =
    "let xs = [ 3; 1 ]\n"
    ^ marker ("allow SRC01 " ^ em_dash ^ " too far away")
    ^ "\nlet ok = 0\nlet sorted = List.sort compare xs\n"
  in
  let r = lint (sealed "lib/a/fix.ml" src) in
  check_fires "marker does not reach line + 2" ~rule:"SRC01"
    ~file:"lib/a/fix.ml" ~line:4 r

let test_marker_hygiene () =
  (* No reason: the marker suppresses nothing and is itself an error. *)
  let src =
    marker "allow SRC01" ^ "\nlet sorted = List.sort compare [ 3; 1 ]\n"
  in
  let r = lint (sealed "lib/a/fix.ml" src) in
  check_fires "reason-less marker does not suppress" ~rule:"SRC01"
    ~file:"lib/a/fix.ml" ~line:2 r;
  check_fires "reason-less marker is an error" ~rule:"SRC00"
    ~file:"lib/a/fix.ml" ~line:1 r;
  (* A marker that matches nothing is a warning. *)
  let src =
    marker ("allow SRC06 " ^ em_dash ^ " nothing here uses it")
    ^ "\nlet answer = 42\n"
  in
  let r = lint (sealed "lib/a/fix.ml" src) in
  (match find_all ~rule:"SRC00" r with
  | [ f ] ->
      Alcotest.(check int) "at the marker line" 1 f.L.Rules.line;
      Alcotest.(check bool) "stale marker is a warning" true
        (f.L.Rules.severity = C.Warning)
  | fs -> Alcotest.failf "expected one SRC00, got %d" (List.length fs))

(* ---- lint.config allowlist ---------------------------------------------- *)

let test_config_allowlist () =
  let config, errors =
    L.Suppress.parse_config
      ("allow SRC03 lib/tables " ^ em_dash ^ " designated table printers\n")
  in
  Alcotest.(check int) "config parses" 0 (List.length errors);
  let source = "let shout () = print_endline \"loud\"\n" in
  let r =
    lint ~config
      (sealed "lib/tables/fix.ml" source @ sealed "lib/other/fix.ml" source)
  in
  Alcotest.(check bool) "allowlisted directory is silent" false
    (fires ~rule:"SRC03" ~file:"lib/tables/fix.ml" ~line:1 r);
  check_fires "other directories still fire" ~rule:"SRC03"
    ~file:"lib/other/fix.ml" ~line:1 r;
  Alcotest.(check int) "exactly one suppression" 1
    (List.length r.L.Engine.suppressed)

let test_config_errors () =
  let config, errors = L.Suppress.parse_config "allow SRC03 lib/x\n" in
  Alcotest.(check int) "entry without reason rejected" 0 (List.length config);
  Alcotest.(check int) "error surfaced" 1 (List.length errors);
  let r =
    lint ~config ~config_errors:errors (sealed "lib/a/fix.ml" "let x = 1\n")
  in
  check_fires "config errors become SRC00" ~rule:"SRC00" ~file:"lint.config"
    ~line:1 r

(* ---- the gate ----------------------------------------------------------- *)

let test_gate () =
  let dirty = lint [ ("lib/a/fix.ml", "let f () = failwith \"boom\"\n") ] in
  Alcotest.(check bool) "findings gate the exit code" true
    (C.exit_code (L.Engine.report dirty) <> 0);
  let clean = lint (sealed "lib/a/fix.ml" "let answer = 42\n") in
  Alcotest.(check int) "clean tree exits 0" 0
    (C.exit_code (L.Engine.report clean));
  (* The JSON report is parseable and carries the versioned schema. *)
  match Obs.Json.parse (Obs.Json.to_string (L.Engine.to_json dirty)) with
  | Error e -> Alcotest.failf "lint JSON does not reparse: %s" e
  | Ok (Obs.Json.Obj fields) ->
      (match List.assoc_opt "schema" fields with
      | Some (Obs.Json.Str s) ->
          Alcotest.(check string) "schema tag" L.Engine.schema_version s
      | _ -> Alcotest.fail "missing schema tag")
  | Ok _ -> Alcotest.fail "lint JSON is not an object"

let suite =
  [
    Alcotest.test_case "rule catalogue" `Quick test_catalogue;
    Alcotest.test_case "SRC01 polymorphic compare" `Quick test_src01;
    Alcotest.test_case "SRC02 append/nth in iteration" `Quick test_src02;
    Alcotest.test_case "SRC03 library printing" `Quick test_src03;
    Alcotest.test_case "SRC04 removed time_it" `Quick test_src04;
    Alcotest.test_case "SRC05 raise-message prefix" `Quick test_src05;
    Alcotest.test_case "SRC06 Obj.magic" `Quick test_src06;
    Alcotest.test_case "SRC07 missing interface" `Quick test_src07;
    Alcotest.test_case "SRC08 process management" `Quick test_src08;
    Alcotest.test_case "SRC09 hot-path Hashtbl" `Quick test_src09;
    Alcotest.test_case "SRC10 Gc outside lib/obs" `Quick test_src10;
    Alcotest.test_case "SRC11 multicore primitives fenced" `Quick test_src11;
    Alcotest.test_case "SRC12 socket plumbing fenced" `Quick test_src12;
    Alcotest.test_case "SRC00 parse error" `Quick test_parse_error;
    Alcotest.test_case "inline suppression" `Quick test_inline_suppression;
    Alcotest.test_case "marker hygiene" `Quick test_marker_hygiene;
    Alcotest.test_case "config allowlist" `Quick test_config_allowlist;
    Alcotest.test_case "config errors" `Quick test_config_errors;
    Alcotest.test_case "gate and JSON schema" `Quick test_gate;
  ]
