(* lib/parallel and the multilevel solver's portfolio workers: map's
   fork-join semantics (index-slot gather, worker ids, exception
   selection), the contract that every [threads] value returns the
   default config's result — identical assignments, costs, byte-identical
   engine records — and threads-independence of the fm.* observability
   totals (per-task accumulators must neither lose nor double-count). *)

module E = Engine
module H = Hypergraph
module P = Partition

(* Thread counts exercised against the default config (threads = 0, no
   spawned domain).  The host may have a single core; correctness and
   determinism must not care. *)
let thread_counts = [ 1; 2; 4 ]

(* ---- map ----------------------------------------------------------------- *)

let test_map_basic () =
  let r = Parallel.map ~threads:3 ~n:100 (fun ~worker:_ i -> i * i) in
  Alcotest.(check int) "length" 100 (Array.length r);
  Array.iteri (fun i v -> Alcotest.(check int) "slot i holds f i" (i * i) v) r;
  Alcotest.(check int) "empty map" 0
    (Array.length (Parallel.map ~threads:3 ~n:0 (fun ~worker:_ i -> i)))

let test_map_worker_ids () =
  (* Which worker runs which task is schedule-dependent — only the id
     range is a contract: one worker per task at most, so a thread count
     far above the task count spawns no more than n - 1 domains. *)
  List.iter
    (fun (threads, n) ->
      let r = Parallel.map ~threads ~n (fun ~worker i -> (i * i, worker)) in
      Alcotest.(check (array int))
        (Printf.sprintf "threads=%d, n=%d: the sequential result" threads n)
        (Array.init n (fun i -> i * i))
        (Array.map fst r);
      Array.iter
        (fun (_, w) ->
          Alcotest.(check bool)
            (Printf.sprintf "threads=%d, n=%d: worker id in range" threads n)
            true
            (w >= 0 && w < min threads n))
        r)
    [ (4, 64); (1000, 3) ]

exception Task_failed of int

let test_map_exception_selection () =
  List.iter
    (fun threads ->
      match
        Parallel.map ~threads ~n:40 (fun ~worker:_ i ->
            if i mod 7 = 3 then raise (Task_failed i) else i)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Task_failed i ->
          Alcotest.(check int)
            (Printf.sprintf "threads=%d: smallest failing index wins" threads)
            3 i)
    [ 1; 3 ]

(* ---- every thread count returns the default's result -------------------- *)

let solve ?(config = Solvers.Multilevel.default_config) hg ~k ~seed =
  let rng = Support.Rng.create seed in
  let part = Solvers.Multilevel.partition ~config rng hg ~k in
  (P.assignment part, P.connectivity_cost hg part)

let solve_at ~threads =
  solve ~config:{ Solvers.Multilevel.default_config with threads }

let test_corpus_threads_independent () =
  List.iter
    (fun (name, hg, k, _) ->
      let base_assign, base_cost = solve hg ~k ~seed:1 in
      List.iter
        (fun threads ->
          let assign, cost = solve_at ~threads hg ~k ~seed:1 in
          Alcotest.(check int)
            (Printf.sprintf "%s: cost at threads=%d" name threads)
            base_cost cost;
          Alcotest.(check (array int))
            (Printf.sprintf "%s: assignment at threads=%d" name threads)
            base_assign assign)
        thread_counts)
    (Test_corpus.corpus ())

let prop_threads_independent =
  QCheck.Test.make ~name:"parallel partition independent of thread count"
    ~count:25
    QCheck.(
      make
        Gen.(
          let* n = int_range 8 60 in
          let* m = int_range 4 80 in
          let* seed = int_bound 1_000_000 in
          return (n, m, seed)))
    (fun (n, m, seed) ->
      let hg =
        Workloads.Rand_hg.uniform (Support.Rng.create seed) ~n ~m ~min_size:2
          ~max_size:4
      in
      let k = 2 + (seed mod 3) in
      let base = solve hg ~k ~seed in
      List.for_all (fun threads -> solve_at ~threads hg ~k ~seed = base)
        [ 1; 3; 5 ])

(* partition_with_cost returns the cost of its last refinement instead of
   evaluating the partition again, so that cost must be the partition's.
   Sizes run from the empty hypergraph (no level at all) through instances
   at or below the coarsening stop (the portfolio winner is the answer) to
   a few hundred nodes (several contracted levels), under both metrics and
   with and without portfolio worker domains (which is why it lives in
   this suite). *)
let prop_partition_with_cost_exact =
  QCheck.Test.make ~name:"multilevel: returned cost = cost of the partition"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let n =
        match Support.Rng.int rng 4 with
        | 0 -> Support.Rng.int rng 3
        | 1 -> 3 + Support.Rng.int rng 60
        | _ -> 60 + Support.Rng.int rng 300
      in
      let m = if n < 2 then 0 else 1 + Support.Rng.int rng (2 * n) in
      let h =
        H.of_edges
          ~edge_weights:(Array.init m (fun _ -> 1 + Support.Rng.int rng 3))
          ~n
          (Array.init m (fun _ ->
               Support.Rng.sample_distinct rng ~n
                 ~k:(2 + Support.Rng.int rng (min 5 (n - 1)))))
      in
      let k = 1 + Support.Rng.int rng 8 in
      let metric =
        if Support.Rng.int rng 2 = 0 then P.Connectivity else P.Cut_net
      in
      let threads = 2 * Support.Rng.int rng 2 in
      let part, cost =
        Solvers.Multilevel.partition_with_cost
          ~config:{ Solvers.Multilevel.eps = 0.03; metric; threads }
          rng h ~k
      in
      cost = P.cost ~metric h part)

(* ---- engine records ------------------------------------------------------ *)

let plain_job ~n ~seed =
  {
    E.Spec.instance = E.Spec.Generated { kind = E.Spec.Uniform; n };
    config = { E.Spec.default_config with E.Spec.k = 4 };
    seed;
    timeout_s = None;
  }

let fingerprint job =
  match E.Spec.fingerprint ~schema:E.Record.schema_version job with
  | Ok fp -> fp
  | Error e -> Alcotest.failf "fingerprint: %s" e

let record_of ?threads job =
  let p = E.Runner.execute ?threads job in
  let status =
    match p.E.Record.p_status with
    | `Done -> E.Record.Done
    | `Failed e -> E.Record.Failed e
  in
  {
    E.Record.fingerprint = fingerprint job;
    job;
    status;
    metrics = p.E.Record.p_metrics;
    observed = p.E.Record.p_observed;
    timing = E.Record.no_timing;
  }

let test_record_threads_independent () =
  List.iter
    (fun seed ->
      let job = plain_job ~n:60 ~seed in
      let base = E.Record.deterministic_string (record_of job) in
      List.iter
        (fun threads ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d: record at threads=%d" seed threads)
            base
            (E.Record.deterministic_string (record_of ~threads job)))
        thread_counts)
    [ 1; 2; 3 ]

let test_retired_parallel_key () =
  (* Jobs and manifests written before the single driver may carry
     "parallel": true.  The key is ignored: such an entry is the same job,
     with the same fingerprint, as the entry without it. *)
  let job = plain_job ~n:40 ~seed:1 in
  let with_parallel =
    match E.Spec.to_json job with
    | Obs.Json.Obj fields ->
        Obs.Json.Obj (fields @ [ ("parallel", Obs.Json.Bool true) ])
    | _ -> Alcotest.fail "a job encodes as an object"
  in
  (match E.Spec.of_json with_parallel with
  | Ok decoded ->
      Alcotest.(check bool) "job JSON decodes to the same job" true
        (decoded = job);
      Alcotest.(check string) "job JSON keeps the fingerprint"
        (fingerprint job) (fingerprint decoded)
  | Error e -> Alcotest.failf "decode: %s" e);
  let manifest config =
    Printf.sprintf
      {|{"schema": "hypartition-manifest/1",
         "instances": [{"generate": "uniform", "n": 40}],
         "configs": [%s], "seeds": [1]}|}
      config
  in
  let expand text =
    match E.Manifest.of_string ~known_experiments:[] text with
    | Ok jobs -> jobs
    | Error e -> Alcotest.failf "manifest: %s" e
  in
  let plain = expand (manifest {|{"k": 4}|}) in
  let marked = expand (manifest {|{"k": 4, "parallel": true}|}) in
  Alcotest.(check bool) "manifest entry expands to the same jobs" true
    (plain = marked && plain = [ job ]);
  Alcotest.(check (list string)) "manifest entry keeps the fingerprints"
    (List.map fingerprint plain) (List.map fingerprint marked)

(* ---- observability totals ------------------------------------------------ *)

let fm_totals ~threads hg ~k =
  Obs.reset_stats ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset_stats ())
    (fun () ->
      ignore (solve_at ~threads hg ~k ~seed:7);
      let snap = Obs.snapshot () in
      List.filter
        (fun (name, _) -> String.starts_with ~prefix:"fm." name)
        snap.Obs.counters)

let test_counter_totals_threads_independent () =
  (* Per-task Fm_stats accumulators committed at the join barrier must
     neither lose nor double-count: totals are a function of the plan,
     not the schedule. *)
  let hg =
    Workloads.Rand_hg.uniform (Support.Rng.create 11) ~n:300 ~m:450
      ~min_size:2 ~max_size:5
  in
  let base = fm_totals ~threads:0 hg ~k:4 in
  Alcotest.(check bool) "threads=0 run emitted fm. counters" true
    (base <> []);
  List.iter
    (fun threads ->
      let got = fm_totals ~threads hg ~k:4 in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "counter totals at threads=%d" threads)
        base got)
    thread_counts

let suite =
  [
    Alcotest.test_case "pool: map gathers by index" `Quick test_map_basic;
    Alcotest.test_case "pool: worker ids" `Quick test_map_worker_ids;
    Alcotest.test_case "pool: smallest-index exception" `Quick
      test_map_exception_selection;
    Alcotest.test_case "corpus: threads-1-vs-N identical" `Slow
      test_corpus_threads_independent;
    QCheck_alcotest.to_alcotest prop_threads_independent;
    QCheck_alcotest.to_alcotest prop_partition_with_cost_exact;
    Alcotest.test_case "records: byte-identical across threads" `Slow
      test_record_threads_independent;
    Alcotest.test_case "records: retired parallel key ignored" `Quick
      test_retired_parallel_key;
    Alcotest.test_case "obs: counter totals threads-independent" `Slow
      test_counter_totals_threads_independent;
  ]
