(* hMETIS hypergraph file format.

   Line 1: "<m> <n> [fmt]" where fmt is omitted or one of 1 (edge weights),
   10 (node weights), 11 (both).  Then m lines with the 1-indexed pins of
   each hyperedge (preceded by the edge weight if fmt has the 1-bit), then,
   if fmt has the 10-bit, n lines of node weights.  '%' starts a comment
   line.

   The reader works on the text where it stands: it locates the trimmed
   non-comment lines, sizes one flat pin array from the edge lines' token
   counts, parses the digits in place and hands the arrays to [Hg.of_csr].
   The order of its checks is part of its contract (hmetis.mli). *)

(* String.trim's whitespace; the text is split into lines at '\n'. *)
let is_space c = c = ' ' || c = '\012' || c = '\r' || c = '\t'

(* Tokens within a line are separated by spaces and tabs only. *)
let is_sep c = c = ' ' || c = '\t'

(* Writes the trimmed bounds [lo, hi) of every non-comment line of [s]
   (comments are empty or start with '%' once trimmed) into [los] and
   [his] as far as they reach; returns the number of such lines. *)
let locate_lines s los his =
  let len = String.length s in
  let count = ref 0 and start = ref 0 in
  while !start <= len do
    let stop = ref !start in
    while !stop < len && s.[!stop] <> '\n' do
      incr stop
    done;
    let lo = ref !start and hi = ref !stop in
    while !lo < !hi && is_space s.[!lo] do
      incr lo
    done;
    while !hi > !lo && is_space s.[!hi - 1] do
      decr hi
    done;
    if !lo < !hi && s.[!lo] <> '%' then begin
      if !count < Array.length los then begin
        los.(!count) <- !lo;
        his.(!count) <- !hi
      end;
      incr count
    end;
    start := !stop + 1
  done;
  !count

let rec skip_seps s i hi = if i < hi && is_sep s.[i] then skip_seps s (i + 1) hi else i

let rec token_end s i hi =
  if i < hi && not (is_sep s.[i]) then token_end s (i + 1) hi else i

let count_tokens s lo hi =
  let count = ref 0 and i = ref (skip_seps s lo hi) in
  while !i < hi do
    incr count;
    i := skip_seps s (token_end s !i hi) hi
  done;
  !count

(* A run of decimal digits this short cannot overflow an int. *)
let max_plain_digits = String.length (string_of_int max_int) - 1

(* The token [i, j) read as [int_of_string_opt] reads it: plain decimal
   digits are summed in place, anything else ("+5", "0x1F", "1_0", "-3")
   goes through [int_of_string_opt]. *)
let parse_token s i j =
  let v = ref 0 and k = ref i in
  if j - i <= max_plain_digits then
    while !k < j && s.[!k] >= '0' && s.[!k] <= '9' do
      v := (10 * !v) + (Char.code s.[!k] - Char.code '0');
      incr k
    done;
  if !k = j then !v
  else
    let token = String.sub s i (j - i) in
    match int_of_string_opt token with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Hmetis.ints_of_line: bad integer %S" token)

(* Parses the tokens of [s] from [i] up to [hi] into [dst.(pos)],
   [dst.(pos + 1)], ... left to right, so the first bad token is the one
   reported. *)
let parse_into s i hi dst pos =
  let i = ref (skip_seps s i hi) and pos = ref pos in
  while !i < hi do
    let j = token_end s !i hi in
    dst.(!pos) <- parse_token s !i j;
    incr pos;
    i := skip_seps s j hi
  done

let ints s lo hi =
  let values = Array.make (count_tokens s lo hi) 0 in
  parse_into s lo hi values 0;
  values

let of_string s =
  let lines = locate_lines s [||] [||] in
  if lines = 0 then failwith "Hmetis.of_lines: empty input";
  let los = Array.make lines 0 and his = Array.make lines 0 in
  ignore (locate_lines s los his);
  let m, n, fmt =
    match ints s los.(0) his.(0) with
    | [| m; n |] -> (m, n, 0)
    | [| m; n; fmt |] -> (m, n, fmt)
    | _ -> failwith "Hmetis.of_lines: malformed header"
  in
  if m < 0 || n < 0 then
    failwith
      (Printf.sprintf "Hmetis.of_lines: negative header counts (%d %d)" m n);
  (* m is bounded by the lines that must follow, n (without node
     weights) by nothing but this limit. *)
  if n > Hg.max_nodes then
    failwith
      (Printf.sprintf "Hmetis.of_lines: %d nodes exceed the limit of %d" n
         Hg.max_nodes);
  if fmt <> 0 && fmt <> 1 && fmt <> 10 && fmt <> 11 then
    failwith "Hmetis.of_lines: unsupported fmt";
  let has_edge_weights = fmt = 1 || fmt = 11 in
  let has_node_weights = fmt = 10 || fmt = 11 in
  let rest = lines - 1 in
  let expected = m + if has_node_weights then n else 0 in
  if rest < expected then failwith "Hmetis.of_lines: truncated file";
  if rest > expected then
    failwith
      (Printf.sprintf
         "Hmetis.of_lines: trailing garbage (%d lines beyond the %d the \
          header promises)"
         (rest - expected) expected);
  (* Edge e is line e + 1, node v's weight line m + 1 + v. *)
  let offsets = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    let tokens = count_tokens s los.(e + 1) his.(e + 1) in
    let size = if has_edge_weights then max 0 (tokens - 1) else tokens in
    offsets.(e + 1) <- offsets.(e) + size
  done;
  let pins = Array.make offsets.(m) 0 in
  let edge_weight = Array.make m 1 in
  for e = 0 to m - 1 do
    let lo = los.(e + 1) and hi = his.(e + 1) in
    let first_pin =
      if not has_edge_weights then lo
      else if lo = hi then
        failwith
          (Printf.sprintf "Hmetis.of_lines: edge %d lacks its weight" (e + 1))
      else begin
        let j = token_end s lo hi in
        edge_weight.(e) <- parse_token s lo j;
        j
      end
    in
    parse_into s first_pin hi pins offsets.(e);
    (* hMETIS pins are 1-indexed; anything outside [1, n] cannot name a
       node. *)
    for i = offsets.(e) to offsets.(e + 1) - 1 do
      let v = pins.(i) in
      if v < 1 || v > n then
        failwith
          (Printf.sprintf
             "Hmetis.of_lines: pin %d of edge %d out of range [1, %d]" v (e + 1)
             n);
      pins.(i) <- v - 1
    done
  done;
  let node_weight = Array.make n 1 in
  if has_node_weights then
    for v = 0 to n - 1 do
      let lo = los.(m + 1 + v) and hi = his.(m + 1 + v) in
      if count_tokens s lo hi = 1 then
        node_weight.(v) <- parse_token s lo (token_end s lo hi)
      else begin
        ignore (ints s lo hi);
        failwith "Hmetis.of_lines: malformed node weight line"
      end
    done;
  (* Every pin passed the range check, so [Hg.of_csr] can only reject a
     duplicate pin; the message is part of the reader's tested error
     contract. *)
  match Hg.of_csr ~n ~node_weight ~edge_weight ~offsets pins with
  | hg -> hg
  | exception Invalid_argument _ ->
      failwith
        "Hmetis.of_lines: invalid hypergraph: Hg.of_edges: duplicate pin \
         within an edge"

let read ic = of_string (In_channel.input_all ic)
let load path = In_channel.with_open_text path read

let to_string t =
  let buf = Buffer.create 1024 in
  let n = Hg.num_nodes t and m = Hg.num_edges t in
  let uniform a = Array.for_all (fun w -> w = 1) a in
  let has_ew = not (uniform (Array.init m (Hg.edge_weight t))) in
  let has_nw = not (uniform (Array.init n (Hg.node_weight t))) in
  let fmt = (if has_nw then 10 else 0) + if has_ew then 1 else 0 in
  if fmt = 0 then Buffer.add_string buf (Printf.sprintf "%d %d\n" m n)
  else Buffer.add_string buf (Printf.sprintf "%d %d %d\n" m n fmt);
  for e = 0 to m - 1 do
    if has_ew then
      Buffer.add_string buf (Printf.sprintf "%d " (Hg.edge_weight t e));
    let first = ref true in
    Hg.iter_pins t e (fun v ->
        if !first then first := false else Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int (v + 1)));
    Buffer.add_char buf '\n'
  done;
  if has_nw then
    for v = 0 to n - 1 do
      Buffer.add_string buf (string_of_int (Hg.node_weight t v));
      Buffer.add_char buf '\n'
    done;
  Buffer.contents buf

let write oc t = output_string oc (to_string t)
let save path t = Out_channel.with_open_text path (fun oc -> write oc t)
