(* 3-Dimensional Matching (3DM) [23]: given equal-size classes X, Y, Z (each
   of size q, represented as 0..q-1) and triples in X x Y x Z, decide
   whether q pairwise-disjoint triples exist.  Source problem of the
   NP-hardness of hierarchy assignment with b2 = 3 (Lemma H.2); it stays
   NP-hard for 3-regular instances (every element in exactly 3 triples). *)

type instance = { q : int; triples : (int * int * int) array }

let create ~q triples =
  List.iter
    (fun (x, y, z) ->
      if x < 0 || x >= q || y < 0 || y >= q || z < 0 || z >= q then
        invalid_arg "Three_dm.create: element out of range")
    triples;
  { q; triples = Array.of_list (List.sort_uniq Support.Order.int_triple triples) }

let size t = t.q
let triples t = t.triples

(* Perfect matching by backtracking on the smallest uncovered x. *)
let perfect_matching t =
  let by_x = Array.make t.q [] in
  Array.iter (fun ((x, _, _) as tr) -> by_x.(x) <- tr :: by_x.(x)) t.triples;
  let used_y = Array.make t.q false and used_z = Array.make t.q false in
  let chosen = ref [] in
  let rec go x =
    if x = t.q then true
    else begin
      let rec try_triples = function
        | [] -> false
        | (_, y, z) :: rest ->
            if (not used_y.(y)) && not used_z.(z) then begin
              used_y.(y) <- true;
              used_z.(z) <- true;
              chosen := (x, y, z) :: !chosen;
              if go (x + 1) then true
              else begin
                chosen := List.tl !chosen;
                used_y.(y) <- false;
                used_z.(z) <- false;
                try_triples rest
              end
            end
            else try_triples rest
      in
      try_triples by_x.(x)
    end
  in
  if go 0 then Some (List.rev !chosen) else None

let has_perfect_matching t = perfect_matching t <> None

let is_perfect_matching t matching =
  List.length matching = t.q
  && begin
       let ux = Array.make t.q false
       and uy = Array.make t.q false
       and uz = Array.make t.q false in
       List.for_all
         (fun ((x, y, z) as tr) ->
           let fresh = (not ux.(x)) && (not uy.(y)) && not uz.(z) in
           ux.(x) <- true;
           uy.(y) <- true;
           uz.(z) <- true;
           fresh && Array.mem tr t.triples)
         matching
     end

(* Random instance containing a planted perfect matching; extra triples are
   sprinkled uniformly. *)
let random_yes rng ~q ~extra =
  let py = Support.Rng.permutation rng q and pz = Support.Rng.permutation rng q in
  let planted = Support.Util.list_init q (fun x -> (x, py.(x), pz.(x))) in
  let extras =
    Support.Util.list_init extra (fun _ ->
        (Support.Rng.int rng q, Support.Rng.int rng q, Support.Rng.int rng q))
  in
  create ~q (planted @ extras)
