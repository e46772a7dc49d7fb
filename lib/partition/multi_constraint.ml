(* Multi-constraint partitioning (Definition 6.1): disjoint node subsets
   V_1, ..., V_c, each of which must be epsilon-balanced separately. *)

type t = {
  subsets : int array array; (* pairwise disjoint node subsets *)
  lower_bounds : int array array option;
      (* optional per-(subset, color) lower bounds, used by the reductions
         of Appendix D (Lemma D.2 "at least h red" constraints are encoded
         directly instead of via fixed filler nodes when convenient) *)
}

let create ?lower_bounds subsets =
  let seen = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun v ->
         if Hashtbl.mem seen v then
           invalid_arg "Multi_constraint.create: subsets not disjoint";
         Hashtbl.add seen v ()))
    subsets;
  (match lower_bounds with
  | Some lb when Array.length lb <> Array.length subsets ->
      invalid_arg "Multi_constraint.create: lower_bounds length"
  | _ -> ());
  { subsets; lower_bounds }

let subsets t = t.subsets
let num_constraints t = Array.length t.subsets

(* Counts of each color inside subset j. *)
let color_counts part subset =
  let counts = Array.make (Part.k part) 0 in
  Array.iter
    (fun v ->
      let c = Part.color part v in
      counts.(c) <- counts.(c) + 1)
    subset;
  counts

let subset_feasible ?variant ~eps part subset =
  let cap =
    Part.capacity ?variant ~eps ~total_weight:(Array.length subset)
      ~k:(Part.k part) ()
  in
  Array.for_all (fun c -> c <= cap) (color_counts part subset)

let feasible ~eps t part =
  let upper_ok =
    Array.for_all (fun s -> subset_feasible ~eps part s) t.subsets
  in
  let lower_ok =
    match t.lower_bounds with
    | None -> true
    | Some lb ->
        let ok = ref true in
        Array.iteri
          (fun j subset ->
            let counts = color_counts part subset in
            Array.iteri
              (fun c need -> if counts.(c) < need then ok := false)
              lb.(j))
          t.subsets;
        !ok
  in
  upper_ok && lower_ok

(* A single constraint covering all of V reduces the problem to the
   standard one. *)
let single ~n = create [| Array.init n Fun.id |]
