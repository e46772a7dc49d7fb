(* Plain-text DAG exchange format and Graphviz export.

   Format: a header line "n m", then m lines "u v" (0-indexed directed
   edges).  '%' starts a comment line. *)

let is_comment line = String.length line = 0 || line.[0] = '%'

let of_string s =
  let lines =
    s |> String.split_on_char '\n' |> List.map String.trim
    |> List.filter (fun l -> not (is_comment l))
  in
  match lines with
  | [] -> failwith "Dag_io.of_string: empty input"
  | header :: rest ->
      let parse_two line =
        match
          line |> String.split_on_char ' '
          |> List.filter (fun x -> x <> "")
          |> List.map int_of_string_opt
        with
        | [ Some a; Some b ] -> (a, b)
        | _ -> failwith (Printf.sprintf "Dag_io.of_string: malformed line %S" line)
      in
      let n, m = parse_two header in
      if n < 0 || m < 0 then
        failwith
          (Printf.sprintf "Dag_io.of_string: negative header counts (%d %d)" n m);
      if n > Hypergraph.max_nodes then
        failwith
          (Printf.sprintf "Dag_io.of_string: %d nodes exceed the limit of %d" n
             Hypergraph.max_nodes);
      let rest = Array.of_list rest in
      if Array.length rest < m then failwith "Dag_io.of_string: truncated file";
      if Array.length rest > m then
        failwith
          (Printf.sprintf
             "Dag_io.of_string: trailing garbage (%d lines beyond the %d \
              edges the header promises)"
             (Array.length rest - m) m);
      let edges =
        List.init m (fun i ->
            let u, v = parse_two rest.(i) in
            if u < 0 || u >= n || v < 0 || v >= n then
              failwith
                (Printf.sprintf
                   "Dag_io.of_string: edge (%d, %d) out of range [0, %d)" u v n);
            (u, v))
      in
      (* Dag.of_edges validates what only the full structure can see
         (self-loops, duplicates, acyclicity); re-raise its defects as the
         parse errors they are here. *)
      match Dag.of_edges ~n edges with
      | dag -> dag
      | exception Invalid_argument msg ->
          failwith (Printf.sprintf "Dag_io.of_string: invalid DAG: %s" msg)
      | exception Dag.Cycle ->
          failwith "Dag_io.of_string: the edge list has a cycle"

let to_string dag =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d\n" (Dag.num_nodes dag) (Dag.num_edges dag));
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v))
    (Dag.edges dag);
  Buffer.contents buf

let load path =
  In_channel.with_open_text path (fun ic -> of_string (In_channel.input_all ic))

let save path dag =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string dag))

(* Graphviz, optionally colored by a partition and ranked by layer. *)
let to_dot ?parts dag =
  let palette =
    [| "#e6550d"; "#3182bd"; "#31a354"; "#756bb1"; "#636363"; "#fd8d3c" |]
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dag {\n  rankdir=TB;\n";
  for v = 0 to Dag.num_nodes dag - 1 do
    let color =
      match parts with
      | Some p when v < Array.length p ->
          Printf.sprintf " style=filled fillcolor=\"%s\""
            palette.(p.(v) mod Array.length palette)
      | _ -> ""
    in
    Buffer.add_string buf (Printf.sprintf "  v%d [label=\"%d\"%s];\n" v v color)
  done;
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  v%d -> v%d;\n" u v))
    (Dag.edges dag);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
