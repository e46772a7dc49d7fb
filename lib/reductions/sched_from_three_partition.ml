(* Theorem 5.5 (out-trees / level-order / chain graphs): computing mu_p is
   NP-hard for k = 2 — via 3-Partition.

   The DAG is a disjoint union of paths (optionally rooted to form an
   out-tree): a *main path* of 2*t*b nodes whose processor assignment
   alternates in blocks of b (b on processor 0, b on processor 1, ...),
   and a *small path* of 2*a_i nodes per integer (a_i on processor 1, then
   a_i on processor 0).

   mu_p = n/2 (zero idle time) iff the integers split into triplets of sum
   b: a perfect schedule must advance the main path every step, so the
   small paths must jointly supply the complementary processor sequence.

   [perfect_schedule_exists] decides this exactly by a search over
   small-path progress vectors that treats small paths of equal length as
   interchangeable: repeated numbers collapse the search, distinct ones
   do not, so the worst case stays exponential. *)

type t = {
  instance : Npc.Three_partition.instance;
  dag : Hyperdag.Dag.t;
  assignment : int array; (* fixed partition p : V -> {0, 1} *)
  main_path : int array;
  small_paths : int array array;
  target : int; (* n / 2: the perfect makespan *)
}

let build ?(rooted = false) instance =
  let numbers = Npc.Three_partition.numbers instance in
  let b = Npc.Three_partition.target instance in
  let t = Array.length numbers / 3 in
  let main_len = 2 * t * b in
  let next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let main_path = Array.init main_len (fun _ -> fresh ()) in
  let small_paths =
    Array.map (fun a -> Array.init (2 * a) (fun _ -> fresh ())) numbers
  in
  let root = if rooted then Some (fresh ()) else None in
  let edges = ref [] in
  let chain nodes =
    for i = 0 to Array.length nodes - 2 do
      edges := (nodes.(i), nodes.(i + 1)) :: !edges
    done
  in
  chain main_path;
  Array.iter chain small_paths;
  (match root with
  | Some r ->
      edges := (r, main_path.(0)) :: !edges;
      Array.iter (fun p -> edges := (r, p.(0)) :: !edges) small_paths
  | None -> ());
  let dag = Hyperdag.Dag.of_edges ~n:!next !edges in
  let assignment = Array.make !next 0 in
  (* Main path: blocks of b alternating 0, 1, 0, 1, ... *)
  Array.iteri
    (fun pos v -> assignment.(v) <- pos / b mod 2)
    main_path;
  (* Small path of a_i: first a_i on processor 1, then a_i on 0. *)
  Array.iteri
    (fun i path ->
      Array.iteri
        (fun pos v -> assignment.(v) <- (if pos < numbers.(i) then 1 else 0))
        path)
    small_paths;
  (match root with Some r -> assignment.(r) <- 0 | None -> ());
  {
    instance;
    dag;
    assignment;
    main_path;
    small_paths;
    target = main_len + (match root with Some _ -> 1 | None -> 0);
  }

(* Decide mu_p = target directly: a perfect schedule runs one main-path
   node and one complementary small-path node every step, so search over
   small-path progress vectors (BFS with memoization; worst-case
   exponential — the problem is NP-hard after all).

   Small paths of equal length have identical colour sequences, so two
   progress vectors that differ only by permuting equal-a_i paths are the
   same state.  The search runs on a sorted copy of the numbers and keeps
   progress non-increasing within each run of equal a_i: only the first
   path of a run of equal (a_i, progress) may advance, which preserves
   that canonical form without sorting per transition.  The frontier is
   then the set of canonical forms of the full frontier, so the decision
   is the same; with all a_i distinct nothing collapses. *)
let perfect_schedule_exists t =
  let numbers = Array.copy (Npc.Three_partition.numbers t.instance) in
  Array.sort Int.compare numbers;
  let b = Npc.Three_partition.target t.instance in
  let paths = Array.length numbers in
  let steps = Array.length t.main_path in
  (* Color of the main-path node at step s (0-based): s / b mod 2; the
     complement is what the small paths must supply. *)
  let needed s = 1 - (s / b mod 2) in
  (* Color of small path i at progress q: 1 while q < a_i, then 0. *)
  let small_color i q = if q < numbers.(i) then 1 else 0 in
  (* Path i is interchangeable with path i-1 at the same progress. *)
  let shadowed progress i =
    i > 0 && numbers.(i - 1) = numbers.(i) && progress.(i - 1) = progress.(i)
  in
  let module Key = struct
    type t = int array

    let equal = Support.Order.int_array_equal
    let hash = Support.Order.int_array_hash
  end in
  let module Tbl = Hashtbl.Make (Key) in
  let frontier = ref [ Array.make paths 0 ] in
  let step = ref 0 in
  while !frontier <> [] && !step < steps do
    let want = needed !step in
    let next = Tbl.create 1024 in
    List.iter
      (fun progress ->
        for i = 0 to paths - 1 do
          let q = progress.(i) in
          if
            q < 2 * numbers.(i)
            && small_color i q = want
            && not (shadowed progress i)
          then begin
            let progress' = Array.copy progress in
            progress'.(i) <- q + 1;
            if not (Tbl.mem next progress') then Tbl.replace next progress' ()
          end
        done)
      !frontier;
    frontier := Tbl.fold (fun k () acc -> k :: acc) next [];
    incr step
  done;
  !step = steps && !frontier <> []

(* Encode a 3-partition solution as an explicit perfect schedule. *)
let embed t triplets =
  let numbers = Npc.Three_partition.numbers t.instance in
  let b = Npc.Three_partition.target t.instance in
  let n = Hyperdag.Dag.num_nodes t.dag in
  let time = Array.make n 0 in
  Array.iteri (fun pos v -> time.(v) <- pos + 1) t.main_path;
  (* Triplet j's small paths run during steps (2j)b+1 .. (2j+2)b: their
     processor-1 prefixes complement the main path's processor-0 block and
     vice versa. *)
  List.iteri
    (fun j (x, y, z) ->
      let base = 2 * j * b in
      (* First halves (processor 1) occupy steps base+1 .. base+b. *)
      let clock = ref (base + 1) in
      List.iter
        (fun i ->
          for pos = 0 to numbers.(i) - 1 do
            time.(t.small_paths.(i).(pos)) <- !clock;
            incr clock
          done)
        [ x; y; z ];
      (* Second halves (processor 0) occupy steps base+b+1 .. base+2b. *)
      List.iter
        (fun i ->
          for pos = numbers.(i) to (2 * numbers.(i)) - 1 do
            time.(t.small_paths.(i).(pos)) <- !clock;
            incr clock
          done)
        [ x; y; z ])
    triplets;
  Scheduling.Schedule.create ~proc:(Array.copy t.assignment) ~time

let dag t = t.dag
let assignment t = t.assignment
let target t = t.target
