(* Quality corpus for the multilevel solver: hardness-gallery and
   generator instances at fixed seeds, with recorded best-of-3
   connectivity costs.  The boundary-driven gain-cache FM must stay
   feasible, deterministic per seed, and never exceed the recorded cost —
   a quality ratchet protecting the hot path against silent regressions
   (the perf side is the repository benchmark's same-machine A/B,
   benchmark/README.md).

   The recorded bounds are the measured costs of the current
   implementation.  Versus the pre-rewrite solver the corpus total
   improved from 1298 to 1293 (uniform_n120 167 -> 165, uniform_n400
   981 -> 980, spmv_banded60 19 -> 16); the one per-instance concession
   is two_regular_n200 at 23 (was 22), attributable to the coarsening
   kernel rewrite, not the FM rewrite — the pre-change refiner also
   yields 23 on top of the new coarsening.  [total_bound] pins the
   aggregate to the pre-change level so that trade stays visible. *)

module P = Partition

(* (name, instance, k, recorded best-of-3 connectivity cost) *)
let corpus () =
  [
    ( "nine_blocks_u3",
      (Reductions.Counterexamples.nine_blocks ~unit_size:3)
        .Reductions.Counterexamples.hypergraph,
      4, 6 );
    ( "nine_blocks_u12",
      (Reductions.Counterexamples.nine_blocks ~unit_size:12)
        .Reductions.Counterexamples.hypergraph,
      4, 5 );
    ( "star_k4_m30",
      (Reductions.Counterexamples.star ~k:4 ~m:30 ~unit_size:2)
        .Reductions.Counterexamples.hypergraph,
      4, 9 );
    ( "uniform_n120",
      Workloads.Rand_hg.uniform (Support.Rng.create 42) ~n:120 ~m:180
        ~min_size:2 ~max_size:5,
      4, 165 );
    ( "uniform_n400",
      Workloads.Rand_hg.uniform (Support.Rng.create 43) ~n:400 ~m:600
        ~min_size:2 ~max_size:6,
      8, 980 );
    ( "planted_n160",
      Workloads.Rand_hg.planted (Support.Rng.create 44) ~n:160 ~m:240 ~k:4
        ~locality:0.9 ~edge_size:4,
      4, 35 );
    ( "two_regular_n200",
      Workloads.Rand_hg.two_regular (Support.Rng.create 45) ~n:200 ~m:90,
      2, 23 );
    ( "spmv_banded60",
      Workloads.Spmv.fine_grain (Workloads.Spmv.banded ~size:60 ~bandwidth:2),
      4, 16 );
    ( "spmv_rownet",
      Workloads.Spmv.row_net
        (Workloads.Spmv.random (Support.Rng.create 46) ~rows:80 ~cols:80
           ~density:0.04),
      4, 54 );
  ]

(* The pre-rewrite corpus total: per-instance bounds may be retuned as the
   solver evolves, but their sum must never regress past this. *)
let total_bound = 1298

let seeds = [ 1; 2; 3 ]

let solve hg ~k ~seed =
  let rng = Support.Rng.create seed in
  let part = Solvers.Multilevel.partition rng hg ~k in
  (part, P.connectivity_cost hg part)

let test_corpus_quality () =
  let total = ref 0 in
  List.iter
    (fun (name, hg, k, bound) ->
      let best = ref max_int in
      List.iter
        (fun seed ->
          let part, cost = solve hg ~k ~seed in
          if not (P.is_balanced ~eps:0.03 hg part) then
            Alcotest.failf "%s: seed %d produced an infeasible partition"
              name seed;
          if cost < !best then best := cost)
        seeds;
      if !best > bound then
        Alcotest.failf "%s: best-of-%d cost %d exceeds the recorded %d" name
          (List.length seeds) !best bound;
      total := !total + !best)
    (corpus ());
  if !total > total_bound then
    Alcotest.failf "corpus total %d exceeds the pre-change total %d" !total
      total_bound

let test_corpus_deterministic () =
  List.iter
    (fun (name, hg, k, _) ->
      let part1, cost1 = solve hg ~k ~seed:1 in
      let part2, cost2 = solve hg ~k ~seed:1 in
      Alcotest.(check int) (name ^ ": cost repeats") cost1 cost2;
      Alcotest.(check (array int))
        (name ^ ": assignment repeats")
        (P.assignment part1) (P.assignment part2))
    (corpus ())

let suite =
  [
    Alcotest.test_case "corpus quality ratchet" `Slow test_corpus_quality;
    Alcotest.test_case "corpus per-seed determinism" `Slow
      test_corpus_deterministic;
  ]
