(* Per-edge color counts: how many pins of edge e lie in part c, for every
   edge and part.  This is the shared incremental state of the FM and
   k-way refinement passes; moving one node updates it in O(degree).

   A count never exceeds its edge's size, so the counts are bit-packed:
   each is a field [bits] wide, [bits] the bit length of the largest
   edge, and [fields] = 62 / [bits] of them share one word (a field never
   reaches the sign bit).  Edge e's k fields take [stride] = ⌈k / fields⌉
   consecutive words from [e * stride]; part c's field lives in word
   [e * stride + offset.(c)] at bit [shift.(c)].  A field never carries
   into or borrows from its neighbour: a count stays within
   [0, |e|] ⊆ [0, mask].

   [Refine] and [Kl_swap] read (and [Refine]'s move walk updates) the
   packed words through [view], with one part's offset and shift hoisted
   out of their per-edge loops; [move] is the plain update every other
   refiner and FM's bulk rollback use. *)

type view = {
  words : int array;
  stride : int;
  offset : int array;
  shift : int array;
  mask : int;
  bits : int;
  fields : int;
}

type t = {
  hg : Hypergraph.t;
  k : int;
  view : view;
  lambdas : int array; (* m; number of non-empty colors per edge *)
}

(* The bit length of the hypergraph's largest edge (at least 1). *)
let field_bits hg =
  let offs = Hypergraph.csr_edge_offsets hg in
  let largest = ref 0 in
  for e = 0 to Hypergraph.num_edges hg - 1 do
    largest := max !largest (offs.(e + 1) - offs.(e))
  done;
  let bits = ref 1 in
  while !largest lsr !bits > 0 do
    incr bits
  done;
  !bits

let make_view hg ~k =
  let bits = field_bits hg in
  let fields = 62 / bits in
  let stride = (k + fields - 1) / fields in
  {
    words = Array.make (Hypergraph.num_edges hg * stride) 0;
    stride;
    offset = Array.init k (fun c -> c / fields);
    shift = Array.init k (fun c -> (c mod fields) * bits);
    mask = (1 lsl bits) - 1;
    bits;
    fields;
  }

(* [reuse] is refilled in place when it counts the physically same
   hypergraph at the same k: the coarsest-level portfolio refines 13
   candidates of one hypergraph, and one word array serves them all. *)
let create ?reuse hg part =
  let k = Partition.k part in
  let m = Hypergraph.num_edges hg in
  let t =
    match reuse with
    | Some t when t.hg == hg && t.k = k ->
        Array.fill t.view.words 0 (Array.length t.view.words) 0;
        Array.fill t.lambdas 0 m 0;
        t
    | _ -> { hg; k; view = make_view hg ~k; lambdas = Array.make m 0 }
  in
  let { words; stride; offset; shift; mask; _ } = t.view in
  let lambdas = t.lambdas in
  let pins = Hypergraph.csr_pins hg and offs = Hypergraph.csr_edge_offsets hg in
  let colors = Partition.assignment part in
  for e = 0 to m - 1 do
    let row = e * stride in
    for i = offs.(e) to offs.(e + 1) - 1 do
      let c = colors.(pins.(i)) in
      let idx = row + offset.(c) and s = shift.(c) in
      let x = words.(idx) in
      if (x lsr s) land mask = 0 then lambdas.(e) <- lambdas.(e) + 1;
      words.(idx) <- x + (1 lsl s)
    done
  done;
  t

let view t = t.view

let count t e c =
  let v = t.view in
  (v.words.((e * v.stride) + v.offset.(c)) lsr v.shift.(c)) land v.mask

let lambda t e = t.lambdas.(e)
let raw_lambdas t = t.lambdas

(* Record that node v moved from part [src] to part [dst]; the caller is
   responsible for updating the partition itself.  The loop walks the CSR
   incidence directly: this runs once per applied or rolled back move and
   must not allocate.  The dst word is read after the src word is
   written: both fields may share it. *)
let move t v ~src ~dst =
  if src <> dst then begin
    let { words; stride; offset; shift; mask; _ } = t.view in
    let lambdas = t.lambdas in
    let so = offset.(src) and ss = shift.(src) in
    let dw = offset.(dst) and ds = shift.(dst) in
    let inc = Hypergraph.csr_incidence t.hg in
    let offs = Hypergraph.csr_node_offsets t.hg in
    for i = offs.(v) to offs.(v + 1) - 1 do
      let e = inc.(i) in
      let row = e * stride in
      let x = words.(row + so) - (1 lsl ss) in
      words.(row + so) <- x;
      if (x lsr ss) land mask = 0 then lambdas.(e) <- lambdas.(e) - 1;
      let y = words.(row + dw) in
      if (y lsr ds) land mask = 0 then lambdas.(e) <- lambdas.(e) + 1;
      words.(row + dw) <- y + (1 lsl ds)
    done
  end

(* Cost change on one edge of weight [w] when one of its pins moves from a
   part holding [src_count] of its pins to one holding [dst_count], with
   λ = [lambda] before the move: the per-edge term of [move_delta], shared
   with the refiners that evaluate a move under counts that differ from
   the maintained ones (a KL swap's second move). *)
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

(* Cost change if node v moved from [src] to [dst] (not performing it). *)
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

(* Total cost from the maintained lambdas (cheap consistency source). *)
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
