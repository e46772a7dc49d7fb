(* k-way partitions of a hypergraph and the two cost metrics of
   Section 3.1: cut-net |{e : lambda_e > 1}| and connectivity
   sum_e (lambda_e - 1), both weighted by edge weights. *)

type metric = Cut_net | Connectivity

type t = { k : int; assignment : int array }

let create ~k assignment =
  if k < 1 then invalid_arg "Part.create: k must be >= 1";
  Array.iter
    (fun c ->
      if c < 0 || c >= k then invalid_arg "Part.create: color out of range")
    assignment;
  { k; assignment }

let k t = t.k
let assignment t = t.assignment
let color t v = t.assignment.(v)
let copy t = { t with assignment = Array.copy t.assignment }

let equal a b = a.k = b.k && a.assignment = b.assignment

let of_predicate ~k ~n pred =
  create ~k (Array.init n (fun v -> pred v))

let trivial ~k ~n = create ~k (Array.make n 0)

let random rng ~k ~n =
  create ~k (Array.init n (fun _ -> Support.Rng.int rng k))

(* Part weights ------------------------------------------------------------- *)

let part_weights hg t =
  let w = Array.make t.k 0 in
  for v = 0 to Hypergraph.num_nodes hg - 1 do
    let c = t.assignment.(v) in
    w.(c) <- w.(c) + Hypergraph.node_weight hg v
  done;
  w

let part_sizes hg t =
  let s = Array.make t.k 0 in
  for v = 0 to Hypergraph.num_nodes hg - 1 do
    s.(t.assignment.(v)) <- s.(t.assignment.(v)) + 1
  done;
  s

let nonempty_parts hg t =
  Support.Util.array_count (fun s -> s > 0) (part_sizes hg t)

(* Balance ------------------------------------------------------------------ *)

type balance = Strict | Relaxed

(* The threshold (1+eps) * W / k of Definition 3.1.  [Strict] takes the
   floor (the definition as stated); [Relaxed] takes the ceiling (the
   variant mentioned in Section 3.1 that guarantees feasibility). A tiny
   slack absorbs float rounding for rational eps. *)
let capacity ?(variant = Strict) ~eps ~total_weight ~k () =
  if Float.is_nan eps then invalid_arg "Part.capacity: eps is NaN";
  if eps < 0.0 then invalid_arg "Part.capacity: negative eps";
  let exact = (1.0 +. eps) *. float_of_int total_weight /. float_of_int k in
  (* No part can outweigh W: the clamp also keeps an infinite or huge eps
     from overflowing the conversion. *)
  if exact >= float_of_int total_weight then total_weight
  else
    match variant with
    | Strict -> int_of_float (floor (exact +. 1e-9))
    | Relaxed -> int_of_float (ceil (exact -. 1e-9))

let is_balanced ?variant ~eps hg t =
  let cap =
    capacity ?variant ~eps ~total_weight:(Hypergraph.total_node_weight hg)
      ~k:t.k ()
  in
  Array.for_all (fun w -> w <= cap) (part_weights hg t)

let imbalance hg t =
  let w = part_weights hg t in
  let ideal = float_of_int (Hypergraph.total_node_weight hg) /. float_of_int t.k in
  (float_of_int (Support.Util.max_array w) /. ideal) -. 1.0

(* Cost --------------------------------------------------------------------- *)

(* lambda_e: number of distinct parts among the pins of edge e, read from
   the CSR views [pins]/[offs] in a plain loop.  Each part is marked in
   [mark] (length k) under [stamp], which lets a caller amortize the
   scratch array. *)
let count_parts pins offs assignment ~mark ~stamp e =
  let count = ref 0 in
  for i = offs.(e) to offs.(e + 1) - 1 do
    let c = assignment.(pins.(i)) in
    if mark.(c) <> stamp then begin
      mark.(c) <- stamp;
      incr count
    end
  done;
  !count

let lambda hg t e =
  count_parts (Hypergraph.csr_pins hg)
    (Hypergraph.csr_edge_offsets hg)
    t.assignment ~mark:(Array.make t.k (-1)) ~stamp:0 e

let is_cut hg t e = lambda hg t e > 1

let all_lambdas hg t =
  let mark = Array.make t.k (-1) in
  let pins = Hypergraph.csr_pins hg and offs = Hypergraph.csr_edge_offsets hg in
  let lambdas = Array.make (Hypergraph.num_edges hg) 0 in
  for e = 0 to Hypergraph.num_edges hg - 1 do
    lambdas.(e) <- count_parts pins offs t.assignment ~mark ~stamp:e e
  done;
  lambdas

(* Every full cost evaluation feeds an obs histogram, so any workload that
   scores partitions (experiments, CLI, audits) reports cut quality in its
   result record and trace without further plumbing. *)
let h_connectivity = Obs.Histogram.make "cost.connectivity"
let h_cutnet = Obs.Histogram.make "cost.cutnet"

let cost ?(metric = Connectivity) hg t =
  let mark = Array.make t.k (-1) in
  let pins = Hypergraph.csr_pins hg and offs = Hypergraph.csr_edge_offsets hg in
  let weights = Hypergraph.csr_edge_weights hg in
  let total = ref 0 in
  for e = 0 to Hypergraph.num_edges hg - 1 do
    let l = count_parts pins offs t.assignment ~mark ~stamp:e e in
    let w = weights.(e) in
    match metric with
    | Cut_net -> if l > 1 then total := !total + w
    | Connectivity -> total := !total + (w * (l - 1))
  done;
  (match metric with
  | Connectivity -> Obs.Histogram.observe_int h_connectivity !total
  | Cut_net -> Obs.Histogram.observe_int h_cutnet !total);
  !total

let cutnet_cost hg t = cost ~metric:Cut_net hg t
let connectivity_cost hg t = cost ~metric:Connectivity hg t

let cut_edges hg t =
  let mark = Array.make t.k (-1) in
  let pins = Hypergraph.csr_pins hg and offs = Hypergraph.csr_edge_offsets hg in
  let acc = ref [] in
  for e = Hypergraph.num_edges hg - 1 downto 0 do
    if count_parts pins offs t.assignment ~mark ~stamp:e e > 1 then
      acc := e :: !acc
  done;
  !acc

let pp ppf t =
  Fmt.pf ppf "@[<h>k=%d [%a]@]" t.k Fmt.(array ~sep:sp int) t.assignment
