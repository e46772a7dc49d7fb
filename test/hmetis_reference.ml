(* The list-based hMETIS reader that Hypergraph.Hmetis replaced, kept
   verbatim (only [Hg.of_edges] is spelled through the library root) as
   the reference the property tests in test_hypergraph.ml compare the
   flat-array reader against: equal CSR views or the same Failure
   message on every input. *)

(* hMETIS hypergraph file format.

   Line 1: "<m> <n> [fmt]" where fmt is omitted or one of 1 (edge weights),
   10 (node weights), 11 (both).  Then m lines with the 1-indexed pins of
   each hyperedge (preceded by the edge weight if fmt has the 1-bit), then,
   if fmt has the 10-bit, n lines of node weights.  '%' starts a comment
   line. *)

let is_comment line = String.length line = 0 || line.[0] = '%'

let ints_of_line line =
  line
  |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")
  |> List.map (fun s ->
         match int_of_string_opt s with
         | Some v -> v
         | None -> failwith (Printf.sprintf "Hmetis.ints_of_line: bad integer %S" s))

let of_lines lines =
  match lines with
  | [] -> failwith "Hmetis.of_lines: empty input"
  | header :: rest ->
      let m, n, fmt =
        match ints_of_line header with
        | [ m; n ] -> (m, n, 0)
        | [ m; n; fmt ] -> (m, n, fmt)
        | _ -> failwith "Hmetis.of_lines: malformed header"
      in
      if m < 0 || n < 0 then
        failwith
          (Printf.sprintf "Hmetis.of_lines: negative header counts (%d %d)" m n);
      if fmt <> 0 && fmt <> 1 && fmt <> 10 && fmt <> 11 then
        failwith "Hmetis.of_lines: unsupported fmt";
      let has_edge_weights = fmt = 1 || fmt = 11 in
      let has_node_weights = fmt = 10 || fmt = 11 in
      let rest = Array.of_list rest in
      let expected = m + if has_node_weights then n else 0 in
      if Array.length rest < expected then failwith "Hmetis.of_lines: truncated file";
      if Array.length rest > expected then
        failwith
          (Printf.sprintf
             "Hmetis.of_lines: trailing garbage (%d lines beyond the %d the \
              header promises)"
             (Array.length rest - expected)
             expected);
      let check_pin e v =
        (* hMETIS pins are 1-indexed; anything outside [1, n] cannot name a
           node. *)
        if v < 1 || v > n then
          failwith
            (Printf.sprintf
               "Hmetis.of_lines: pin %d of edge %d out of range [1, %d]" v
               (e + 1) n);
        v - 1
      in
      let edge_weights = Array.make m 1 in
      let edges =
        Array.init m (fun e ->
            match ints_of_line rest.(e) with
            | [] when has_edge_weights ->
                failwith
                  (Printf.sprintf
                     "Hmetis.of_lines: edge %d lacks its weight" (e + 1))
            | w :: pins when has_edge_weights ->
                edge_weights.(e) <- w;
                Array.of_list (List.map (check_pin e) pins)
            | pins -> Array.of_list (List.map (check_pin e) pins))
      in
      let node_weights =
        if has_node_weights then
          Array.init n (fun v ->
              match ints_of_line rest.(m + v) with
              | [ w ] -> w
              | _ -> failwith "Hmetis.of_lines: malformed node weight line")
        else Array.make n 1
      in
      (* Hg.of_edges validates what only the full structure can see
         (duplicate pins within an edge); re-raise its Invalid_argument as
         the parse error it is here. *)
      match Hypergraph.of_edges ~n ~node_weights ~edge_weights edges with
      | hg -> hg
      | exception Invalid_argument msg ->
          failwith (Printf.sprintf "Hmetis.of_lines: invalid hypergraph: %s" msg)

let of_string s =
  of_lines
    (s |> String.split_on_char '\n' |> List.map String.trim
    |> List.filter (fun l -> not (is_comment l)))

let read ic =
  let rec collect acc =
    match In_channel.input_line ic with
    | Some line ->
        let line = String.trim line in
        collect (if is_comment line then acc else line :: acc)
    | None -> List.rev acc
  in
  of_lines (collect [])
