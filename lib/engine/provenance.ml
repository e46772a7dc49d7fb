(* Run provenance: the facts that make a trace from one machine
   comparable with one from another.  A timing quoted without them
   ("6.4x here vs 4.2x there" — same code? same machine? different
   OCaml?) is ambiguous in exactly the ways these five fields settle, so
   the CLI and the batch engine stamp them on every trace they write. *)

let hostname () =
  match Unix.gethostname () with
  | name -> name
  | exception Unix.Unix_error _ -> "unknown"

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let collect ?jobs ?threads () =
  let open Obs.Json in
  [
    ("hostname", Str (hostname ()));
    ("ocaml_version", Str Sys.ocaml_version);
    ("word_size", Int Sys.word_size);
    ("git_rev", Str (git_rev ()));
  ]
  @ (match jobs with Some j -> [ ("jobs", Int j) ] | None -> [])
  @ match threads with Some t -> [ ("threads", Int t) ] | None -> []
