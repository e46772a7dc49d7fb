(* lib/parallel and the multicore multilevel path: pool fork-join
   semantics (index-slot gather, exception selection), the
   threads-1-vs-N determinism contract of Multilevel.partition with
   [threads >= 1] — identical assignments,
   costs, byte-identical engine records — and threads-independence of
   the fm.* / lp.* observability totals (per-domain accumulators must
   neither lose nor double-count). *)

module E = Engine
module H = Hypergraph
module P = Partition

(* Worker counts exercised against the threads=1 baseline.  The host may
   have a single core; correctness and determinism must not care. *)
let multi_threads = [ 2; 4 ]

(* ---- pool ---------------------------------------------------------------- *)

let test_map_basic () =
  Parallel.run ~threads:3 (fun pool ->
      Alcotest.(check int) "threads" 3 (Parallel.threads pool);
      let r = Parallel.map pool ~n:100 (fun ~worker:_ i -> i * i) in
      Alcotest.(check int) "length" 100 (Array.length r);
      Array.iteri
        (fun i v -> Alcotest.(check int) "slot i holds f i" (i * i) v)
        r;
      Alcotest.(check int) "empty map" 0
        (Array.length (Parallel.map pool ~n:0 (fun ~worker:_ i -> i))))

let test_map_worker_ids () =
  Parallel.run ~threads:4 (fun pool ->
      (* Which worker runs which task is schedule-dependent — only the
         id range is a contract. *)
      let workers = Parallel.map pool ~n:64 (fun ~worker _ -> worker) in
      Array.iter
        (fun w ->
          Alcotest.(check bool) "worker id in range" true (w >= 0 && w < 4))
        workers)

exception Task_failed of int

let test_map_exception_selection () =
  Parallel.run ~threads:3 (fun pool ->
      (match
         Parallel.map pool ~n:40 (fun ~worker:_ i ->
             if i mod 7 = 3 then raise (Task_failed i) else i)
       with
      | _ -> Alcotest.fail "expected an exception"
      | exception Task_failed i ->
          Alcotest.(check int) "smallest failing index wins" 3 i);
      (* The pool survives a failed scatter. *)
      let r = Parallel.map pool ~n:10 (fun ~worker:_ i -> i + 1) in
      Alcotest.(check int) "pool reusable after failure" 10 r.(9))

let test_run_bracket () =
  (* [run] shuts the pool down even when the body raises. *)
  (match Parallel.run ~threads:2 (fun _ -> raise Exit) with
  | () -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  Alcotest.(check int) "run returns the body's value" 42
    (Parallel.run ~threads:2 (fun _ -> 42))

(* ---- threads-1-vs-N determinism ------------------------------------------ *)

let par_config ~threads =
  { Solvers.Multilevel.default_config with threads }

let solve_par ~threads hg ~k ~seed =
  let rng = Support.Rng.create seed in
  let part =
    Solvers.Multilevel.partition ~config:(par_config ~threads) rng hg ~k
  in
  (P.assignment part, P.connectivity_cost hg part)

let test_corpus_threads_independent () =
  List.iter
    (fun (name, hg, k, _) ->
      let base_assign, base_cost = solve_par ~threads:1 hg ~k ~seed:1 in
      List.iter
        (fun threads ->
          let assign, cost = solve_par ~threads hg ~k ~seed:1 in
          Alcotest.(check int)
            (Printf.sprintf "%s: cost at threads=%d" name threads)
            base_cost cost;
          Alcotest.(check (array int))
            (Printf.sprintf "%s: assignment at threads=%d" name threads)
            base_assign assign)
        multi_threads)
    (Test_corpus.corpus ())

let test_corpus_parallel_feasible () =
  List.iter
    (fun (name, hg, k, _) ->
      let rng = Support.Rng.create 1 in
      let part =
        Solvers.Multilevel.partition ~config:(par_config ~threads:2) rng hg ~k
      in
      if not (P.is_balanced ~eps:0.03 hg part) then
        Alcotest.failf "%s: parallel path produced an infeasible partition"
          name)
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
      let base = solve_par ~threads:1 hg ~k ~seed in
      List.for_all (fun threads -> solve_par ~threads hg ~k ~seed = base)
        [ 3; 5 ])

(* ---- engine records ------------------------------------------------------ *)

let par_job ~n ~seed =
  {
    E.Spec.instance = E.Spec.Generated { kind = E.Spec.Uniform; n };
    config = { E.Spec.default_config with E.Spec.k = 4; parallel = true };
    seed;
    timeout_s = None;
  }

let record_of ~threads job =
  let p = E.Runner.execute ~threads job in
  let fingerprint =
    match E.Spec.fingerprint ~schema:E.Record.schema_version job with
    | Ok fp -> fp
    | Error e -> Alcotest.failf "fingerprint: %s" e
  in
  let status =
    match p.E.Record.p_status with
    | `Done -> E.Record.Done
    | `Failed e -> E.Record.Failed e
  in
  {
    E.Record.fingerprint;
    job;
    status;
    metrics = p.E.Record.p_metrics;
    observed = p.E.Record.p_observed;
    timing = E.Record.no_timing;
  }

let test_record_threads_independent () =
  List.iter
    (fun seed ->
      let job = par_job ~n:60 ~seed in
      let base = E.Record.deterministic_string (record_of ~threads:1 job) in
      List.iter
        (fun threads ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d: record at threads=%d" seed threads)
            base
            (E.Record.deterministic_string (record_of ~threads job)))
        multi_threads)
    [ 1; 2; 3 ]

let test_parallel_marks_identity () =
  (* parallel=true is a different algorithm, so it must change the job
     fingerprint; the thread count must not exist in the plan at all. *)
  let seq = { (par_job ~n:40 ~seed:1) with E.Spec.config = E.Spec.default_config } in
  let seq = { seq with E.Spec.config = { seq.E.Spec.config with E.Spec.k = 4 } } in
  let par = par_job ~n:40 ~seed:1 in
  let fp job =
    match E.Spec.fingerprint ~schema:E.Record.schema_version job with
    | Ok fp -> fp
    | Error e -> Alcotest.failf "fingerprint: %s" e
  in
  Alcotest.(check bool) "parallel flag changes the fingerprint" true
    (fp seq <> fp par);
  match E.Spec.of_json (E.Spec.to_json par) with
  | Ok job' ->
      Alcotest.(check bool) "parallel survives the codec" true
        job'.E.Spec.config.E.Spec.parallel
  | Error e -> Alcotest.failf "roundtrip: %s" e

(* ---- observability totals ------------------------------------------------ *)

let obs_totals ~threads hg ~k =
  Obs.reset_stats ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset_stats ())
    (fun () ->
      let rng = Support.Rng.create 7 in
      ignore
        (Solvers.Multilevel.partition ~config:(par_config ~threads) rng hg ~k);
      let snap = Obs.snapshot () in
      List.filter
        (fun (name, _) ->
          String.length name >= 3
          && (String.sub name 0 3 = "fm." || String.sub name 0 3 = "lp."))
        snap.Obs.counters)

let test_counter_totals_threads_independent () =
  (* Per-domain Fm_stats accumulators committed at the join barrier must
     neither lose nor double-count: totals are a function of the plan,
     not the schedule. *)
  let hg =
    Workloads.Rand_hg.uniform (Support.Rng.create 11) ~n:300 ~m:450
      ~min_size:2 ~max_size:5
  in
  let base = obs_totals ~threads:1 hg ~k:4 in
  Alcotest.(check bool) "threads=1 run emitted fm./lp. counters" true
    (base <> []);
  List.iter
    (fun threads ->
      let got = obs_totals ~threads hg ~k:4 in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "counter totals at threads=%d" threads)
        base got)
    multi_threads

let suite =
  [
    Alcotest.test_case "pool: map gathers by index" `Quick test_map_basic;
    Alcotest.test_case "pool: worker ids" `Quick test_map_worker_ids;
    Alcotest.test_case "pool: smallest-index exception" `Quick
      test_map_exception_selection;
    Alcotest.test_case "pool: run bracket" `Quick test_run_bracket;
    Alcotest.test_case "corpus: threads-1-vs-N identical" `Slow
      test_corpus_threads_independent;
    Alcotest.test_case "corpus: parallel path feasible" `Slow
      test_corpus_parallel_feasible;
    QCheck_alcotest.to_alcotest prop_threads_independent;
    Alcotest.test_case "records: byte-identical across threads" `Slow
      test_record_threads_independent;
    Alcotest.test_case "records: parallel flag is identity" `Quick
      test_parallel_marks_identity;
    Alcotest.test_case "obs: counter totals threads-independent" `Slow
      test_counter_totals_threads_independent;
  ]
