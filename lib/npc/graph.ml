(* Simple undirected graphs, the input format of several source problems
   (SpES, coloring, clique). *)

type t = {
  n : int;
  edges : (int * int) array; (* normalized u < v, no duplicates *)
  adj : int array array;
}

let normalize (u, v) = if u <= v then (u, v) else (v, u)

let of_edges ~n edge_list =
  let seen = Hashtbl.create (2 * List.length edge_list) in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: node out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      let e = normalize (u, v) in
      if Hashtbl.mem seen e then invalid_arg "Graph.of_edges: duplicate edge";
      Hashtbl.add seen e ())
    edge_list;
  let edges = Array.of_list (List.map normalize edge_list) in
  Array.sort Support.Order.int_pair edges;
  let lists = Array.make n [] in
  Array.iter
    (fun (u, v) ->
      lists.(u) <- v :: lists.(u);
      lists.(v) <- u :: lists.(v))
    edges;
  let adj = Array.map (fun l -> Array.of_list (List.sort Int.compare l)) lists in
  { n; edges; adj }

let num_nodes t = t.n
let num_edges t = Array.length t.edges
let edges t = t.edges
let neighbors t v = t.adj.(v)
let degree t v = Array.length t.adj.(v)
let has_edge t u v = Array.mem v t.adj.(u)

let incident_edges t v =
  let acc = ref [] in
  Array.iteri
    (fun i (a, b) -> if a = v || b = v then acc := i :: !acc)
    t.edges;
  List.rev !acc

let to_hypergraph t =
  Hypergraph.of_edges ~n:t.n (Array.map (fun (u, v) -> [| u; v |]) t.edges)

let max_degree t =
  if t.n = 0 then 0
  else Support.Util.max_array (Array.init t.n (fun v -> degree t v))

let complete n =
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      acc := (u, v) :: !acc
    done
  done;
  of_edges ~n !acc

let random rng ~n ~p =
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Support.Rng.bernoulli rng p then acc := (u, v) :: !acc
    done
  done;
  of_edges ~n !acc

let cycle n =
  if n < 3 then invalid_arg "Graph.cycle: n >= 3";
  of_edges ~n (Support.Util.list_init n (fun i -> (i, (i + 1) mod n)))

(* Number of edges induced by a node subset. *)
let induced_edge_count t subset =
  let in_set = Array.make t.n false in
  Array.iter (fun v -> in_set.(v) <- true) subset;
  Support.Util.array_count (fun (u, v) -> in_set.(u) && in_set.(v)) t.edges
