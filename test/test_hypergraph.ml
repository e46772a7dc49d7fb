(* Tests for the hypergraph substrate: CSR construction, derived graphs,
   gadgets, and the hMETIS format. *)

module H = Hypergraph

let triangle () =
  (* The Figure 2 hypergraph: 3 nodes, 3 edges of size 2. *)
  H.of_edges ~n:3 [| [| 0; 1 |]; [| 1; 2 |]; [| 0; 2 |] |]

let test_basic_accessors () =
  let h = triangle () in
  Alcotest.(check int) "n" 3 (H.num_nodes h);
  Alcotest.(check int) "m" 3 (H.num_edges h);
  Alcotest.(check int) "rho" 6 (H.num_pins h);
  Alcotest.(check int) "delta" 2 (H.max_degree h);
  Alcotest.(check int) "edge size" 2 (H.edge_size h 0);
  Alcotest.(check int) "degree" 2 (H.node_degree h 1);
  Alcotest.(check (array int)) "pins sorted" [| 0; 2 |] (H.edge_pins h 2);
  Alcotest.(check bool) "edge_mem yes" true (H.edge_mem h 1 2);
  Alcotest.(check bool) "edge_mem no" false (H.edge_mem h 1 0);
  Alcotest.(check (array int)) "incident edges" [| 0; 1 |] (H.incident_edges h 1)

let test_weights () =
  let h =
    H.of_edges ~n:3 ~node_weights:[| 2; 3; 4 |] ~edge_weights:[| 5; 7 |]
      [| [| 0; 1 |]; [| 1; 2 |] |]
  in
  Alcotest.(check int) "node weight" 3 (H.node_weight h 1);
  Alcotest.(check int) "edge weight" 7 (H.edge_weight h 1);
  Alcotest.(check int) "total node weight" 9 (H.total_node_weight h);
  Alcotest.(check int) "total edge weight" 12 (H.total_edge_weight h)

let test_validation () =
  Alcotest.check_raises "pin out of range"
    (Invalid_argument "Hg.of_edges: pin out of range") (fun () ->
      ignore (H.of_edges ~n:2 [| [| 0; 2 |] |]));
  Alcotest.check_raises "duplicate pin"
    (Invalid_argument "Hg.of_edges: duplicate pin within an edge") (fun () ->
      ignore (H.of_edges ~n:3 [| [| 1; 1 |] |]));
  (* An edge that is both out of range and duplicated: pins are checked
     in sorted order, range before duplicate, so whichever fault sorts
     first wins. *)
  Alcotest.check_raises "out of range pin sorts first"
    (Invalid_argument "Hg.of_edges: pin out of range") (fun () ->
      ignore (H.of_edges ~n:3 [| [| 1; 1; -1 |] |]));
  Alcotest.check_raises "duplicate sorts first"
    (Invalid_argument "Hg.of_edges: duplicate pin within an edge") (fun () ->
      ignore (H.of_edges ~n:3 [| [| 5; 0; 0 |] |]));
  Alcotest.check_raises "earlier edge wins"
    (Invalid_argument "Hg.of_edges: duplicate pin within an edge") (fun () ->
      ignore (H.of_edges ~n:3 [| [| 2; 2 |]; [| 7 |] |]))

(* The CSR views of a hypergraph, for exact comparison. *)
let csr_views h =
  [
    [| H.num_nodes h |];
    H.csr_pins h;
    H.csr_edge_offsets h;
    H.csr_incidence h;
    H.csr_node_offsets h;
    H.csr_edge_weights h;
    H.csr_node_weights h;
  ]

let test_of_csr () =
  let pins = [| 2; 0; 1; 3; 1 |] in
  let h =
    H.of_csr ~n:4 ~node_weight:[| 1; 2; 3; 4 |] ~edge_weight:[| 5; 6 |]
      ~offsets:[| 0; 3; 5 |] pins
  in
  Alcotest.(check (array int)) "unsorted slice sorted" [| 0; 1; 2 |] (H.edge_pins h 0);
  Alcotest.(check (array int)) "second slice sorted" [| 1; 3 |] (H.edge_pins h 1);
  Alcotest.(check bool) "pins taken over, not copied" true (H.csr_pins h == pins);
  Alcotest.(check bool) "same CSR as of_edges" true
    (csr_views h
    = csr_views
        (H.of_edges ~n:4 ~node_weights:[| 1; 2; 3; 4 |] ~edge_weights:[| 5; 6 |]
           [| [| 2; 0; 1 |]; [| 3; 1 |] |]));
  Alcotest.(check (array int)) "incidence in edge order" [| 0; 1 |] (H.incident_edges h 1);
  let raises name msg ?(n = 3) ?(node_weight = [| 1; 1; 1 |])
      ?(edge_weight = [| 1 |]) offsets pins =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (H.of_csr ~n ~node_weight ~edge_weight ~offsets pins))
  in
  raises "pin out of range" "Hg.of_csr: pin out of range" [| 0; 2 |] [| 0; 3 |];
  raises "duplicate pin" "Hg.of_csr: duplicate pin within an edge" [| 0; 2 |] [| 1; 1 |];
  raises "node weights" "Hg.of_csr: node_weight length" ~node_weight:[| 1 |] [| 0; 1 |]
    [| 0 |];
  raises "offsets length" "Hg.of_csr: offsets length" [| 0 |] [||];
  raises "offsets short of the pins" "Hg.of_csr: offsets do not span the pins"
    [| 0; 1 |] [| 0; 1 |];
  raises "offsets decrease" "Hg.of_csr: offsets decrease" ~edge_weight:[| 1; 1 |]
    [| 0; 2; 1 |] [| 0 |]

let test_builder () =
  let b = H.Builder.create () in
  let v0 = H.Builder.add_node b in
  let vs = H.Builder.add_nodes ~weight:2 b 3 in
  let e0 = H.Builder.add_edge b [| v0; vs.(0) |] in
  let _e1 = H.Builder.add_edge ~weight:4 b vs in
  let h = H.Builder.build b in
  Alcotest.(check int) "builder n" 4 (H.num_nodes h);
  Alcotest.(check int) "builder m" 2 (H.num_edges h);
  Alcotest.(check int) "edge ids stable" 0 e0;
  Alcotest.(check int) "node weight default" 1 (H.node_weight h v0);
  Alcotest.(check int) "node weight custom" 2 (H.node_weight h vs.(1));
  Alcotest.(check int) "edge weight" 4 (H.edge_weight h 1);
  Alcotest.(check (array int)) "pins of e1" vs (H.edge_pins h 1)

let test_induced_subgraph () =
  let h = triangle () in
  let sub, old_nodes, old_edges = H.induced_subgraph h [| 0; 1 |] in
  Alcotest.(check int) "sub n" 2 (H.num_nodes sub);
  Alcotest.(check int) "sub m" 1 (H.num_edges sub);
  Alcotest.(check (array int)) "old nodes" [| 0; 1 |] old_nodes;
  Alcotest.(check (array int)) "old edges" [| 0 |] old_edges;
  (* Full set: identity. *)
  let full, _, _ = H.induced_subgraph h [| 0; 1; 2 |] in
  Alcotest.(check int) "full keeps all edges" 3 (H.num_edges full)

let test_contract () =
  let h =
    H.of_edges ~n:4 [| [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 0; 3 |] |]
  in
  (* Merge {0,1} and {2,3}. *)
  let c = H.contract h [| 0; 0; 1; 1 |] 2 in
  Alcotest.(check int) "contracted n" 2 (H.num_nodes c);
  (* Edge {0,1} and {2,3} become singletons (dropped); {1,2} and {0,3}
     both become {0,1} and merge with weight 2. *)
  Alcotest.(check int) "contracted m" 1 (H.num_edges c);
  Alcotest.(check int) "merged weight" 2 (H.edge_weight c 0);
  Alcotest.(check int) "node weight sums" 2 (H.node_weight c 0);
  let c' = H.contract ~drop_singletons:false ~merge_identical:false h
      [| 0; 0; 1; 1 |] 2
  in
  Alcotest.(check int) "no drop, no merge" 4 (H.num_edges c')

let test_connected_components () =
  let h = H.of_edges ~n:6 [| [| 0; 1; 2 |]; [| 3; 4 |] |] in
  let label, count = H.connected_components h in
  Alcotest.(check int) "three components" 3 count;
  Alcotest.(check int) "0 and 2 together" label.(0) label.(2);
  Alcotest.(check bool) "isolated node alone" true (label.(5) <> label.(0));
  Alcotest.(check bool) "two groups differ" true (label.(3) <> label.(0))

let test_disjoint_union () =
  let h = H.disjoint_union (triangle ()) (H.of_edges ~n:2 [| [| 0; 1 |] |]) in
  Alcotest.(check int) "union n" 5 (H.num_nodes h);
  Alcotest.(check int) "union m" 4 (H.num_edges h);
  Alcotest.(check (array int)) "shifted pins" [| 3; 4 |] (H.edge_pins h 3)

let test_add_isolated () =
  let h = H.add_isolated_nodes (triangle ()) 4 in
  Alcotest.(check int) "n grows" 7 (H.num_nodes h);
  Alcotest.(check int) "m unchanged" 3 (H.num_edges h);
  Alcotest.(check int) "isolated degree" 0 (H.node_degree h 6)

let test_degree_sequence () =
  let h = H.of_edges ~n:3 [| [| 0; 1 |]; [| 0; 2 |]; [| 0; 1; 2 |] |] in
  Alcotest.(check (array int)) "sorted degrees" [| 2; 2; 3 |]
    (H.degree_sequence h)

(* Gadgets ------------------------------------------------------------------ *)

let test_block_structure () =
  let h = H.Gadgets.block_hypergraph ~size:5 in
  Alcotest.(check int) "block n" 5 (H.num_nodes h);
  Alcotest.(check int) "block m" 5 (H.num_edges h);
  for e = 0 to 4 do
    Alcotest.(check int) "edge size b-1" 4 (H.edge_size h e)
  done;
  for v = 0 to 4 do
    Alcotest.(check int) "degree b-1" 4 (H.node_degree h v)
  done

let test_grid_structure () =
  let h, g = H.Gadgets.grid_hypergraph ~side:4 ~outsiders:2 () in
  Alcotest.(check int) "grid n" (16 + 2) (H.num_nodes h);
  Alcotest.(check int) "grid m" 8 (H.num_edges h);
  (* Cells have degree exactly 2; outsiders degree 1. *)
  Array.iter
    (fun row ->
      Array.iter
        (fun v -> Alcotest.(check int) "cell degree" 2 (H.node_degree h v))
        row)
    g.H.Gadgets.cells;
  Array.iter
    (fun v -> Alcotest.(check int) "outsider degree" 1 (H.node_degree h v))
    g.H.Gadgets.outsiders;
  Alcotest.(check int) "row 0 extended" 5 (H.edge_size h g.H.Gadgets.row_edges.(0));
  Alcotest.(check int) "row 3 plain" 4 (H.edge_size h g.H.Gadgets.row_edges.(3));
  Alcotest.(check int) "delta is 2" 2 (H.max_degree h);
  Alcotest.(check int) "grid_nodes count" 18
    (Array.length (H.Gadgets.grid_nodes g))

let test_dense_hyperdag_block () =
  let h = H.Gadgets.dense_hyperdag_hypergraph ~size:6 in
  Alcotest.(check int) "dense n" 6 (H.num_nodes h);
  Alcotest.(check int) "dense m" 5 (H.num_edges h);
  Alcotest.(check (array int)) "degree sequence (1,2,...,m-1,m-1)"
    [| 1; 2; 3; 4; 5; 5 |]
    (H.degree_sequence h)

let test_robust_block () =
  let h = Hypergraph.Builder.create () in
  let _ = H.Gadgets.robust_block h ~size:6 ~slack:1 in
  let h = Hypergraph.Builder.build h in
  Alcotest.(check int) "robust n" 6 (H.num_nodes h);
  (* All subsets of size 6-1-2 = 3. *)
  Alcotest.(check int) "robust m = C(6,3)" 20 (H.num_edges h)

(* hMETIS ------------------------------------------------------------------- *)

let test_hmetis_roundtrip_plain () =
  let h = triangle () in
  let h' = H.Hmetis.of_string (H.Hmetis.to_string h) in
  Alcotest.(check int) "n" (H.num_nodes h) (H.num_nodes h');
  Alcotest.(check int) "m" (H.num_edges h) (H.num_edges h');
  for e = 0 to 2 do
    Alcotest.(check (array int)) "pins" (H.edge_pins h e) (H.edge_pins h' e)
  done

let test_hmetis_roundtrip_weighted () =
  let h =
    H.of_edges ~n:4 ~node_weights:[| 1; 2; 3; 4 |] ~edge_weights:[| 9; 1 |]
      [| [| 0; 1; 2 |]; [| 2; 3 |] |]
  in
  let h' = H.Hmetis.of_string (H.Hmetis.to_string h) in
  for v = 0 to 3 do
    Alcotest.(check int) "node weights" (H.node_weight h v) (H.node_weight h' v)
  done;
  for e = 0 to 1 do
    Alcotest.(check int) "edge weights" (H.edge_weight h e) (H.edge_weight h' e);
    Alcotest.(check (array int)) "pins" (H.edge_pins h e) (H.edge_pins h' e)
  done

let test_hmetis_parse_reference () =
  (* Example from the hMETIS manual: 4 hyperedges, 7 nodes. *)
  let text = "% comment\n4 7\n1 2\n1 7 5 6\n5 6 4\n2 3 4\n" in
  let h = H.Hmetis.of_string text in
  Alcotest.(check int) "n" 7 (H.num_nodes h);
  Alcotest.(check int) "m" 4 (H.num_edges h);
  Alcotest.(check (array int)) "0-indexed pins" [| 0; 4; 5; 6 |]
    (H.edge_pins h 1)

let test_hmetis_errors () =
  Alcotest.check_raises "empty" (Failure "Hmetis.of_lines: empty input") (fun () ->
      ignore (H.Hmetis.of_string ""));
  (try
     ignore (H.Hmetis.of_string "2 3\n1 2\n");
     Alcotest.fail "expected failure on truncated file"
   with Failure _ -> ())

(* Malformed input must always surface as a [Failure] whose message names
   the parser ("Hmetis. ..."), never as an escaping [Invalid_argument]
   from a constructor deeper down. *)
let expect_hmetis_failure name text =
  match H.Hmetis.of_string text with
  | _ -> Alcotest.failf "%s: parse unexpectedly succeeded" name
  | exception Failure msg ->
      Alcotest.(check bool)
        (name ^ ": error names the parser")
        true
        (String.length msg >= 7 && String.sub msg 0 7 = "Hmetis.")
  | exception e ->
      Alcotest.failf "%s: expected Failure, got %s" name (Printexc.to_string e)

let test_hmetis_malformed () =
  expect_hmetis_failure "negative header" "-1 3\n";
  expect_hmetis_failure "non-numeric header" "two 3\n";
  expect_hmetis_failure "unsupported fmt" "1 3 7\n1 2\n";
  expect_hmetis_failure "truncated header" "2\n1 2\n";
  expect_hmetis_failure "pin above range" "1 3\n1 4\n";
  expect_hmetis_failure "pin zero (1-indexed format)" "1 3\n0 1\n";
  expect_hmetis_failure "duplicate pin in an edge" "1 3\n2 2\n";
  expect_hmetis_failure "trailing garbage" "1 3\n1 2\n1 3\n";
  expect_hmetis_failure "missing node weights" "1 2 10\n1 2\n";
  expect_hmetis_failure "malformed node weight line" "1 2 10\n1 2\n1 1\n1\n"

(* n is checked against the node limit before anything is sized from it:
   this 22-byte file used to raise Invalid_argument("Array.make"). *)
let test_hmetis_node_limit () =
  Alcotest.check_raises "n = max_int"
    (Failure
       (Printf.sprintf "Hmetis.of_lines: %d nodes exceed the limit of %d"
          max_int H.max_nodes))
    (fun () -> ignore (H.Hmetis.of_string "0 4611686018427387903"));
  Alcotest.check_raises "one node beyond the limit"
    (Failure
       (Printf.sprintf "Hmetis.of_lines: %d nodes exceed the limit of %d"
          (H.max_nodes + 1) H.max_nodes))
    (fun () ->
      ignore (H.Hmetis.of_string (Printf.sprintf "0 %d\n" (H.max_nodes + 1))))

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_dot_export () =
  let h = triangle () in
  let dot = H.Dot.to_string ~parts:[| 0; 1; 0 |] h in
  Alcotest.(check bool) "mentions node" true (string_contains dot "v0");
  Alcotest.(check bool) "mentions edge" true (string_contains dot "e2");
  Alcotest.(check bool) "incidence arc" true (string_contains dot "v1 -- e0")

(* Property tests ----------------------------------------------------------- *)

let random_hypergraph_gen =
  QCheck.Gen.(
    let* n = int_range 1 20 in
    let* m = int_range 0 15 in
    let* edges =
      list_repeat m
        (let* size = int_range 1 (min n 5) in
         let* seed = int_bound 1_000_000 in
         let rng = Support.Rng.create seed in
         return (Support.Rng.sample_distinct rng ~n ~k:size))
    in
    return (H.of_edges ~n (Array.of_list edges)))

let arbitrary_hypergraph =
  QCheck.make ~print:(fun h -> Fmt.str "%a" H.pp h) random_hypergraph_gen

let qcheck_pin_count =
  QCheck.Test.make ~name:"rho equals sum of edge sizes and sum of degrees"
    ~count:100 arbitrary_hypergraph (fun h ->
      let by_edges =
        List.init (H.num_edges h) (H.edge_size h) |> List.fold_left ( + ) 0
      in
      let by_nodes =
        List.init (H.num_nodes h) (H.node_degree h) |> List.fold_left ( + ) 0
      in
      by_edges = H.num_pins h && by_nodes = H.num_pins h)

let qcheck_incidence_consistent =
  QCheck.Test.make ~name:"v in pins(e) iff e in incident(v)" ~count:100
    arbitrary_hypergraph (fun h ->
      let ok = ref true in
      for e = 0 to H.num_edges h - 1 do
        H.iter_pins h e (fun v ->
            if not (Array.mem e (H.incident_edges h v)) then ok := false)
      done;
      for v = 0 to H.num_nodes h - 1 do
        H.iter_incident h v (fun e -> if not (H.edge_mem h e v) then ok := false)
      done;
      !ok)

let qcheck_hmetis_roundtrip =
  QCheck.Test.make ~name:"hMETIS roundtrip preserves structure" ~count:100
    arbitrary_hypergraph (fun h ->
      let h' = H.Hmetis.of_string (H.Hmetis.to_string h) in
      H.num_nodes h = H.num_nodes h'
      && H.num_edges h = H.num_edges h'
      && List.for_all
           (fun e -> H.edge_pins h e = H.edge_pins h' e)
           (List.init (H.num_edges h) Fun.id))

(* A random hypergraph whose node and edge weights are each either all 1
   or random, so [to_string] writes all four fmt variants (0, 1, 10, 11). *)
let weighted_hypergraph rng =
  let n = 1 + Support.Rng.int rng 12 in
  let m = Support.Rng.int rng 10 in
  let edges =
    Array.init m (fun _ ->
        Support.Rng.sample_distinct rng ~n ~k:(1 + Support.Rng.int rng (min n 5)))
  in
  let weights len =
    if Support.Rng.bool rng then Array.make len 1
    else Array.init len (fun _ -> 1 + Support.Rng.int rng 12)
  in
  let edge_weights = weights m in
  let node_weights = weights n in
  H.of_edges ~n ~node_weights ~edge_weights edges

(* contract against a list-based statement of what it promises: labels
   map the pins, repeated labels collapse, singletons go, and the rest
   come out ordered by (pins, weight) with identical pin sets merged. *)
let reference_contract h label count =
  let node_weights = Array.make count 0 in
  Array.iteri
    (fun v l -> node_weights.(l) <- node_weights.(l) + H.node_weight h v)
    label;
  let mapped =
    List.filter_map
      (fun e ->
        let pins =
          List.sort_uniq Int.compare
            (List.map (fun v -> label.(v)) (Array.to_list (H.edge_pins h e)))
        in
        if List.length pins > 1 then Some (pins, H.edge_weight h e) else None)
      (List.init (H.num_edges h) Fun.id)
  in
  let rec merge = function
    | (p, w) :: (q, w') :: rest when Support.Order.int_list p q = 0 ->
        merge ((p, w + w') :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  let edges =
    merge
      (List.stable_sort
         (Support.Order.pair Support.Order.int_list Int.compare)
         mapped)
  in
  H.of_edges ~n:count ~node_weights
    ~edge_weights:(Array.of_list (List.map snd edges))
    (Array.of_list (List.map (fun (p, _) -> Array.of_list p) edges))

let qcheck_contract_reference =
  QCheck.Test.make ~name:"contract builds the reference CSR" ~count:200
    QCheck.small_int
    (fun seed ->
      let rng = Support.Rng.create seed in
      let h = weighted_hypergraph rng in
      let count = 1 + Support.Rng.int rng (H.num_nodes h) in
      let label = Array.init (H.num_nodes h) (fun _ -> Support.Rng.int rng count) in
      csr_views (H.contract h label count) = csr_views (reference_contract h label count))

(* hMETIS reader against the list-based reference ------------------------- *)

(* The text as hand-edited files have it: comment and blank lines between
   the data lines, runs of spaces and tabs between tokens, padding (form
   feeds too) at both ends and CRLF line ends. *)
let dress rng text =
  let pick a = Support.Rng.choose rng a in
  let buf = Buffer.create (2 * String.length text) in
  let eol () = pick [| "\n"; "\n"; "\r\n" |] in
  let pad () = pick [| ""; ""; " "; "\t"; " \t "; "\012" |] in
  List.iter
    (fun line ->
      if Support.Rng.int rng 4 = 0 then
        Buffer.add_string buf
          (pick [| "% a comment"; "%"; "  %\tpadded"; ""; " \t "; "\r" |] ^ eol ());
      Buffer.add_string buf (pad ());
      String.iter
        (fun c ->
          if c = ' ' then Buffer.add_string buf (pick [| " "; "  "; "\t"; " \t" |])
          else Buffer.add_char buf c)
        line;
      Buffer.add_string buf (pad ());
      Buffer.add_string buf (eol ()))
    (String.split_on_char '\n' text);
  Buffer.contents buf

(* One fault: the text cut at any byte, one byte replaced, or one token
   replaced by a form that is not plain decimal (or is, with zeros). *)
let damage rng text =
  let len = String.length text in
  match Support.Rng.int rng 3 with
  | 0 -> String.sub text 0 (Support.Rng.int rng (len + 1))
  | 1 when len > 0 ->
      let b = Bytes.of_string text in
      Bytes.set b (Support.Rng.int rng len)
        (Support.Rng.choose rng
           [| '0'; '7'; ' '; '\t'; '\n'; '\r'; '%'; 'x'; '-'; '+'; '_'; '\012' |]);
      Bytes.to_string b
  | _ ->
      let is_gap c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' in
      let starts =
        List.filter
          (fun i -> (not (is_gap text.[i])) && (i = 0 || is_gap text.[i - 1]))
          (List.init len Fun.id)
      in
      if starts = [] then text
      else
        let i = List.nth starts (Support.Rng.int rng (List.length starts)) in
        let j = ref i in
        while !j < len && not (is_gap text.[!j]) do
          incr j
        done;
        String.sub text 0 i
        ^ Support.Rng.choose rng [| "+5"; "0x1F"; "1_0"; "-3"; "007" |]
        ^ String.sub text !j (len - !j)

let hmetis_texts_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let rng = Support.Rng.create seed in
    let h = weighted_hypergraph rng in
    let text = dress rng (H.Hmetis.to_string h) in
    let damaged =
      List.init 4 (fun i -> if i < 2 then damage rng text else damage rng (damage rng text))
    in
    return (h, text, damaged))

let outcome parse text =
  match parse text with
  | h -> Ok (csr_views h)
  | exception e -> Error (Printexc.to_string e)

(* Inputs whose faults race: which message wins is the checks' order. *)
let test_hmetis_check_order () =
  List.iter
    (fun text ->
      Alcotest.(check (result (list (array int)) string))
        (Printf.sprintf "%S" text)
        (outcome Hmetis_reference.of_string text)
        (outcome H.Hmetis.of_string text))
    [
      "1 3\n4 x\n" (* every token of a line parses before its range check *);
      "1 3\n9 9\n" (* range before duplicate *);
      "2 3\n2 2\n1 x\n" (* duplicates only after every line parsed *);
      "2 3 1\n1 1 3\n2 4\n" (* range, edge 2, before duplicate, edge 1 *);
      "1 3 10\n1 4\n1\nx 2\n1\n" (* edge lines before node weights *);
      "1 3 10\n1 2\n1\n2 x\n1\n" (* bad integer before malformed line *);
      "1 3 10 x\n" (* bad integer before malformed header *);
      "x 3 5\n" (* header parse before fmt *);
      "-1 3 5\n" (* negative counts before fmt *);
      "1 3 5\n" (* fmt before line count *);
      "1 3\n" (* truncated *);
      "0 3\n1\n" (* trailing *);
      "1 2\n+5 -3 0x1F 1_0 007 99999999999999999999\n";
      "1 2\n99999999999999999999\n";
      "1 2\n0000000000000000001 2\n";
    ]

let load_outcome text =
  let path = Filename.temp_file "hmetis" ".hgr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      outcome H.Hmetis.load path)

let qcheck_hmetis_reference =
  QCheck.Test.make ~name:"hMETIS reader matches the list-based reference"
    ~count:300
    (QCheck.make
       ~print:(fun (_, text, damaged) ->
         String.concat "\n---\n" (List.map (Printf.sprintf "%S") (text :: damaged)))
       hmetis_texts_gen)
    (fun (h, text, damaged) ->
      outcome H.Hmetis.of_string text = Ok (csr_views h)
      && List.for_all
           (fun t ->
             outcome H.Hmetis.of_string t = outcome Hmetis_reference.of_string t)
           (text :: damaged)
      && List.for_all
           (fun t -> load_outcome t = outcome H.Hmetis.of_string t)
           [ text; List.hd damaged ])

let suite =
  [
    Alcotest.test_case "basic accessors" `Quick test_basic_accessors;
    Alcotest.test_case "weights" `Quick test_weights;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "of_csr" `Quick test_of_csr;
    Alcotest.test_case "builder" `Quick test_builder;
    Alcotest.test_case "induced subgraph" `Quick test_induced_subgraph;
    Alcotest.test_case "contract" `Quick test_contract;
    Alcotest.test_case "connected components" `Quick test_connected_components;
    Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
    Alcotest.test_case "add isolated nodes" `Quick test_add_isolated;
    Alcotest.test_case "degree sequence" `Quick test_degree_sequence;
    Alcotest.test_case "block gadget" `Quick test_block_structure;
    Alcotest.test_case "grid gadget" `Quick test_grid_structure;
    Alcotest.test_case "dense hyperDAG block" `Quick test_dense_hyperdag_block;
    Alcotest.test_case "robust block" `Quick test_robust_block;
    Alcotest.test_case "hMETIS roundtrip" `Quick test_hmetis_roundtrip_plain;
    Alcotest.test_case "hMETIS weighted roundtrip" `Quick
      test_hmetis_roundtrip_weighted;
    Alcotest.test_case "hMETIS reference parse" `Quick
      test_hmetis_parse_reference;
    Alcotest.test_case "hMETIS errors" `Quick test_hmetis_errors;
    Alcotest.test_case "hMETIS malformed input" `Quick test_hmetis_malformed;
    Alcotest.test_case "hMETIS node limit" `Quick test_hmetis_node_limit;
    Alcotest.test_case "hMETIS check order" `Quick test_hmetis_check_order;
    Alcotest.test_case "DOT export" `Quick test_dot_export;
    QCheck_alcotest.to_alcotest qcheck_pin_count;
    QCheck_alcotest.to_alcotest qcheck_incidence_consistent;
    QCheck_alcotest.to_alcotest qcheck_hmetis_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_hmetis_reference;
    QCheck_alcotest.to_alcotest qcheck_contract_reference;
  ]
