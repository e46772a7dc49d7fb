(* Repository files the tests read, found from any working directory.

   [dune runtest] runs the suite in _build/default/test, one level below
   _build/default: the build tree's mirror of the repository root, which
   holds the copies the test's (deps) name.  Run from anywhere else (the
   repository root, say), the binary falls back to the repository itself:
   the directory above _build in the executable's path, absolute on
   Linux. *)

let repo_root () =
  let rec up dir =
    let parent = Filename.dirname dir in
    if Filename.basename dir = "_build" then Some parent
    else if parent = dir then None
    else up parent
  in
  up (Filename.dirname Sys.executable_name)

(* [path rel] for a path relative to the repository root, such as
   "README.md" or "test/fixtures/dom". *)
let path rel =
  let in_build_tree = Filename.concat Filename.parent_dir_name rel in
  if Sys.file_exists in_build_tree then in_build_tree
  else
    match repo_root () with
    | Some root -> Filename.concat root rel
    | None -> in_build_tree
