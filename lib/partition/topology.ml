(* Tree-shaped processor topologies (Section 7): a rooted tree of depth d
   with branching factors b_1..b_d (level 1 = children of the root) and
   monotonically decreasing transfer costs g_1 >= ... >= g_d, normalized to
   g_d = 1.  Leaves are the k = prod b_i compute units, numbered 0..k-1 in
   mixed-radix order, so the digits of a leaf index identify its ancestors. *)

type t = {
  branching : int array; (* b_1 .. b_d *)
  costs : float array; (* g_1 .. g_d *)
  k : int;
  suffix_product : int array;
      (* suffix_product.(i) = b_{i+1} * ... * b_d; leaves below one level-i
         node.  suffix_product.(d) = 1. *)
}

let create ~branching ~costs =
  let d = Array.length branching in
  if d = 0 then invalid_arg "Topology.create: empty hierarchy";
  if Array.length costs <> d then
    invalid_arg "Topology.create: costs length mismatch";
  Array.iter
    (fun b -> if b < 2 then invalid_arg "Topology.create: branching >= 2")
    branching;
  for i = 1 to d - 1 do
    if costs.(i) > costs.(i - 1) +. 1e-12 then
      invalid_arg "Topology.create: costs must be non-increasing"
  done;
  if abs_float (costs.(d - 1) -. 1.0) > 1e-9 then
    invalid_arg "Topology.create: g_d must be 1";
  let suffix_product = Array.make (d + 1) 1 in
  for i = d - 1 downto 0 do
    suffix_product.(i) <- suffix_product.(i + 1) * branching.(i)
  done;
  { branching; costs; k = suffix_product.(0); suffix_product }

let depth t = Array.length t.branching
let num_leaves t = t.k
let branching t = Array.copy t.branching
let cost_of_level t i =
  if i < 1 || i > depth t then invalid_arg "Topology.cost_of_level: level out of range";
  t.costs.(i - 1)

(* Flat k-way partitioning as the special case d = 1. *)
let flat k = create ~branching:[| k |] ~costs:[| 1.0 |]

let two_level ~b1 ~b2 ~g1 =
  create ~branching:[| b1; b2 |] ~costs:[| g1; 1.0 |]

let uniform_binary ~depth:d ~g =
  (* costs g^(d-1), ..., g, 1. *)
  create
    ~branching:(Array.make d 2)
    ~costs:(Array.init d (fun i -> g ** float_of_int (d - 1 - i)))

(* The level-i ancestor of a leaf, encoded as the leaf-index prefix: leaves
   below the same level-i node share leaf / suffix_product.(i). *)
let ancestor t leaf ~level =
  if leaf < 0 || leaf >= t.k then invalid_arg "Topology.ancestor: bad leaf";
  if level < 0 || level > depth t then
    invalid_arg "Topology.ancestor: bad level";
  leaf / t.suffix_product.(level)

(* Level of the lowest common ancestor of two distinct leaves, in 1..d:
   1 means the data crosses the top of the hierarchy (cost g_1), d means
   bottom-level siblings (cost g_d = 1). *)
let lca_level t a b =
  if a = b then invalid_arg "Topology.lca_level: equal leaves";
  let rec go level =
    if ancestor t a ~level = ancestor t b ~level then go (level + 1)
    else level
  in
  go 1

let transfer_cost t a b = cost_of_level t (lca_level t a b)

let pp ppf t =
  Fmt.pf ppf "@[<h>topology d=%d b=[%a] g=[%a] k=%d@]" (depth t)
    Fmt.(array ~sep:comma int)
    t.branching
    Fmt.(array ~sep:comma float)
    t.costs t.k
