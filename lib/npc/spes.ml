(* Smallest p-Edge Subgraph (SpES): given a graph and p, find the smallest
   node subset V0 inducing at least p edges [35].  This is the source
   problem of the main reduction (Theorem 4.1); it is equivalent to
   Minimum p-Union on graphs (choose p edges minimizing their endpoint
   union): any V0 with >= p induced edges yields p edges whose union is
   inside V0, and vice versa.

   W[1]-hard (generalizes clique: a clique of size s is an SpES solution
   with p = C(s,2)); our exact solver enumerates node subsets by increasing
   size, which is fine at reduction-verification scale. *)

type solution = { nodes : int array; induced_edges : int }

(* Smallest subset size that can possibly induce p edges: s with
   C(s,2) >= p. *)
let size_lower_bound p =
  let rec go s = if Support.Util.choose s 2 >= p then s else go (s + 1) in
  if p <= 0 then 0 else go 2

let exact g ~p =
  let n = Graph.num_nodes g in
  if p <= 0 then Some { nodes = [||]; induced_edges = 0 }
  else if Graph.num_edges g < p then None
  else begin
    let found = ref None in
    let s = ref (size_lower_bound p) in
    while !found = None && !s <= n do
      Support.Util.iter_subsets ~n ~k:!s (fun subset ->
          if !found = None then begin
            let induced = Graph.induced_edge_count g subset in
            if induced >= p then
              found := Some { nodes = subset; induced_edges = induced }
          end);
      incr s
    done;
    !found
  end

let optimum g ~p =
  match exact g ~p with
  | Some { nodes; _ } -> Some (Array.length nodes)
  | None -> None

(* Greedy heuristic: repeatedly add the node with the largest marginal
   number of newly induced edges. *)
let greedy g ~p =
  let n = Graph.num_nodes g in
  if p <= 0 then Some { nodes = [||]; induced_edges = 0 }
  else if Graph.num_edges g < p then None
  else begin
    let chosen = Array.make n false in
    let induced = ref 0 in
    let size = ref 0 in
    while !induced < p && !size < n do
      let best = ref (-1) and best_gain = ref (-1) in
      for v = 0 to n - 1 do
        if not chosen.(v) then begin
          let gain =
            Support.Util.array_count
              (fun u -> chosen.(u))
              (Graph.neighbors g v)
          in
          if gain > !best_gain then begin
            best_gain := gain;
            best := v
          end
        end
      done;
      chosen.(!best) <- true;
      induced := !induced + !best_gain;
      incr size
    done;
    if !induced >= p then begin
      let nodes =
        Array.of_list
          (List.filter (fun v -> chosen.(v)) (List.init n Fun.id))
      in
      Some { nodes; induced_edges = !induced }
    end
    else None
  end

let is_solution g ~p sol =
  Graph.induced_edge_count g sol.nodes >= p
  && sol.induced_edges = Graph.induced_edge_count g sol.nodes
