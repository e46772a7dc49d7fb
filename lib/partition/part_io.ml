(* Partition vector files: one part id per line ('%' comments), the format
   written by hMETIS-style partitioners. *)

let of_string ~n s =
  let lines =
    s |> String.split_on_char '\n' |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '%')
  in
  if List.length lines <> n then
    failwith
      (Printf.sprintf "Part_io.of_string: %d entries for %d nodes" (List.length lines) n);
  let vector =
    Array.of_list
      (List.map
         (fun l ->
           match int_of_string_opt l with
           | Some v when v >= Hypergraph.max_nodes ->
               (* k = 1 + the largest id: bounded, it cannot overflow. *)
               failwith
                 (Printf.sprintf
                    "Part_io.of_string: part id %d exceeds the limit of %d \
                     parts"
                    v Hypergraph.max_nodes)
           | Some v when v >= 0 -> v
           | _ -> failwith (Printf.sprintf "Part_io.of_string: bad entry %S" l))
         lines)
  in
  let k = if n = 0 then 1 else 1 + Support.Util.max_array vector in
  Part.create ~k vector

let to_string part =
  let buf = Buffer.create 256 in
  Array.iter
    (fun c ->
      Buffer.add_string buf (string_of_int c);
      Buffer.add_char buf '\n')
    (Part.assignment part);
  Buffer.contents buf

let load ~n path =
  In_channel.with_open_text path (fun ic ->
      of_string ~n (In_channel.input_all ic))

let save path part =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string part))
