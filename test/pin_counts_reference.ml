(* The m×k pin-count matrix that Solvers.Pin_counts packed into
   instance-wide bit fields, kept (its view accessors dropped) as the
   reference the packing property in test_properties.ml drives the packed
   counts against: counts.(e * k + c) is the number of pins of edge e in
   part c, one int each. *)

type t = {
  hg : Hypergraph.t;
  k : int;
  counts : int array; (* m * k *)
  lambdas : int array; (* m; number of non-empty colors per edge *)
}

let create ?reuse hg part =
  let k = Partition.k part in
  let m = Hypergraph.num_edges hg in
  let t =
    match reuse with
    | Some t when t.hg == hg && t.k = k ->
        Array.fill t.counts 0 (m * k) 0;
        Array.fill t.lambdas 0 m 0;
        t
    | _ -> { hg; k; counts = Array.make (m * k) 0; lambdas = Array.make m 0 }
  in
  let counts = t.counts and lambdas = t.lambdas in
  let pins = Hypergraph.csr_pins hg and offs = Hypergraph.csr_edge_offsets hg in
  let colors = Partition.assignment part in
  for e = 0 to m - 1 do
    for i = offs.(e) to offs.(e + 1) - 1 do
      let idx = (e * k) + colors.(pins.(i)) in
      if counts.(idx) = 0 then lambdas.(e) <- lambdas.(e) + 1;
      counts.(idx) <- counts.(idx) + 1
    done
  done;
  t

let count t e c = t.counts.((e * t.k) + c)
let lambda t e = t.lambdas.(e)

let move t v ~src ~dst =
  if src <> dst then begin
    let inc = Hypergraph.csr_incidence t.hg in
    let offs = Hypergraph.csr_node_offsets t.hg in
    for i = offs.(v) to offs.(v + 1) - 1 do
      let e = inc.(i) in
      let si = (e * t.k) + src and di = (e * t.k) + dst in
      t.counts.(si) <- t.counts.(si) - 1;
      if t.counts.(si) = 0 then t.lambdas.(e) <- t.lambdas.(e) - 1;
      if t.counts.(di) = 0 then t.lambdas.(e) <- t.lambdas.(e) + 1;
      t.counts.(di) <- t.counts.(di) + 1
    done
  end

let edge_delta metric ~w ~lambda ~src_count ~dst_count =
  let leaving_empties = src_count = 1 in
  let entering_fresh = dst_count = 0 in
  match metric with
  | Partition.Connectivity ->
      (if entering_fresh then w else 0) - if leaving_empties then w else 0
  | Partition.Cut_net ->
      let l' =
        lambda
        - (if leaving_empties then 1 else 0)
        + if entering_fresh then 1 else 0
      in
      let cut l = if l > 1 then w else 0 in
      cut l' - cut lambda

let move_delta ?(metric = Partition.Connectivity) t v ~src ~dst =
  if src = dst then 0
  else begin
    let delta = ref 0 in
    Hypergraph.iter_incident t.hg v (fun e ->
        delta :=
          !delta
          + edge_delta metric ~w:(Hypergraph.edge_weight t.hg e)
              ~lambda:(lambda t e) ~src_count:(count t e src)
              ~dst_count:(count t e dst));
    !delta
  end

let cost ?(metric = Partition.Connectivity) t =
  let total = ref 0 in
  Array.iteri
    (fun e l ->
      let w = Hypergraph.edge_weight t.hg e in
      match metric with
      | Partition.Cut_net -> if l > 1 then total := !total + w
      | Partition.Connectivity -> total := !total + (w * (l - 1)))
    t.lambdas;
  !total
