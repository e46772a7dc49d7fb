(* Benchmark harness.

   Default: run the full experiment suite (E1 .. E16) — one section per
   table/figure/claim of the paper (see DESIGN.md and EXPERIMENTS.md) —
   through the lib/engine batch engine, followed by the Bechamel
   micro-benchmarks of the core kernels, and write a machine-readable
   report (schema Obs.bench_schema_version) to BENCH_<gitrev>.json.

   usage: main.exe [--micro] [--experiments] [E<k> ...] [--out FILE]
                   [--jobs N] [--timeout SECS] [--cache-dir DIR]
                   [--no-cache]

     --micro          micro-benchmarks only (plus any E<k> given; the
                      scaling-curve micro rows sweep threads 1/2/4/8)
     --experiments    experiment suite only
     E<k> ...         run just the named experiments
     --out FILE       write the JSON report to FILE instead of
                      BENCH_<gitrev>.json
     --jobs N         engine worker processes for the experiment suite
     --timeout SECS   per-experiment wall-clock budget (SIGKILL on expiry)
     --cache-dir DIR  engine result cache (default .hypartition-cache)
     --no-cache       recompute everything, touch no cache

   Experiments run as engine jobs: each in a forked worker with
   observability collection on, so its section of the report carries the
   engine timing (wall time, attempts, worker slot, cached flag) plus the
   counters, gauges, histograms and span rollup the instrumented solvers
   produced (cost.* histograms give the cut quality of every cost
   evaluation without extra plumbing). *)

open Bechamel

let connectivity_bench () =
  let rng = Support.Rng.create 1 in
  let hg = Workloads.Rand_hg.uniform rng ~n:2000 ~m:3000 ~min_size:2 ~max_size:8 in
  let part = Partition.random rng ~k:8 ~n:2000 in
  Test.make ~name:"connectivity cost (n=2000, m=3000, k=8)"
    (Staged.stage (fun () -> ignore (Partition.connectivity_cost hg part)))

let cutnet_bench () =
  let rng = Support.Rng.create 2 in
  let hg = Workloads.Rand_hg.uniform rng ~n:2000 ~m:3000 ~min_size:2 ~max_size:8 in
  let part = Partition.random rng ~k:8 ~n:2000 in
  Test.make ~name:"cut-net cost (n=2000, m=3000, k=8)"
    (Staged.stage (fun () -> ignore (Partition.cutnet_cost hg part)))

let fm_pass_bench () =
  let rng = Support.Rng.create 3 in
  let hg = Workloads.Rand_hg.uniform rng ~n:1000 ~m:1500 ~min_size:2 ~max_size:6 in
  Test.make ~name:"FM refinement (n=1000, m=1500, k=2)"
    (Staged.stage (fun () ->
         let part = Solvers.Initial.random_balanced ~eps:0.03 rng hg ~k:2 in
         ignore
           (Solvers.Refine.refine
              ~config:{ Solvers.Refine.default_config with eps = 0.03 }
              hg part)))

(* Same kernel at k = 8: the gain cache pays for itself when recomputing a
   move delta costs O(deg * k) but reading the cached row costs O(k). *)
let fm_kway_bench () =
  let rng = Support.Rng.create 3 in
  let hg = Workloads.Rand_hg.uniform rng ~n:1000 ~m:1500 ~min_size:2 ~max_size:6 in
  Test.make ~name:"FM refinement (n=1000, m=1500, k=8)"
    (Staged.stage (fun () ->
         let part = Solvers.Initial.random_balanced ~eps:0.03 rng hg ~k:8 in
         ignore
           (Solvers.Refine.refine
              ~config:{ Solvers.Refine.default_config with eps = 0.03 }
              hg part)))

let coarsen_bench () =
  let rng = Support.Rng.create 4 in
  let hg = Workloads.Rand_hg.uniform rng ~n:2000 ~m:3000 ~min_size:2 ~max_size:6 in
  Test.make ~name:"coarsening level (n=2000, m=3000)"
    (Staged.stage (fun () ->
         ignore (Solvers.Coarsen.one_level rng hg ~max_cluster_weight:8)))

let multilevel_bench () =
  let rng = Support.Rng.create 5 in
  let hg = Workloads.Rand_hg.uniform rng ~n:1000 ~m:1500 ~min_size:2 ~max_size:6 in
  Test.make ~name:"multilevel end-to-end (n=1000, m=1500, k=4)"
    (Staged.stage (fun () ->
         ignore (Solvers.Multilevel.partition rng hg ~k:4)))

(* Scaling curve for the multilevel solver's domain pool: the same solve
   at threads = 1, 2, 4, 8, where only the coarsest-level portfolio's FM
   runs on the pool.  All four rows compute the partition of the default
   config, so the curve isolates wall-clock: pool start-up and join
   against the portfolio's share of the solve.  The row names predate
   the single driver and are kept so reports stay comparable (micro rows
   are informational). *)
let par_multilevel_bench ~threads () =
  let rng = Support.Rng.create 5 in
  let hg = Workloads.Rand_hg.uniform rng ~n:2000 ~m:3000 ~min_size:2 ~max_size:6 in
  Test.make
    ~name:
      (Printf.sprintf "parallel multilevel (n=2000, m=3000, k=4, threads=%d)"
         threads)
    (Staged.stage (fun () ->
         ignore
           (Solvers.Multilevel.partition
              ~config:{ Solvers.Multilevel.default_config with threads }
              rng hg ~k:4)))

let recognition_bench () =
  let rng = Support.Rng.create 6 in
  let dag = Workloads.Dag_gen.layered rng ~layers:40 ~width:50 ~max_indegree:3 in
  let hg = Hyperdag.hypergraph_of_dag dag in
  Test.make ~name:"hyperDAG recognition (n=2000)"
    (Staged.stage (fun () -> ignore (Hyperdag.recognize hg)))

let matching_bench () =
  let rng = Support.Rng.create 7 in
  let k = 16 in
  let m = Array.init k (fun _ -> Array.init k (fun _ -> Support.Rng.int rng 100)) in
  let w a b = m.(a).(b) in
  Test.make ~name:"matching DP (k=16)"
    (Staged.stage (fun () -> ignore (Pairing.exact_max_weight ~k w)))

let kl_bench () =
  let rng = Support.Rng.create 9 in
  let hg = Workloads.Rand_hg.uniform rng ~n:300 ~m:450 ~min_size:2 ~max_size:5 in
  Test.make ~name:"KL swap refinement (n=300, m=450, k=2)"
    (Staged.stage (fun () ->
         let part = Solvers.Initial.random_balanced ~eps:0.0 rng hg ~k:2 in
         ignore (Solvers.Kl_swap.refine hg part)))

let vcycle_bench () =
  let rng = Support.Rng.create 10 in
  let hg = Workloads.Rand_hg.uniform rng ~n:1000 ~m:1500 ~min_size:2 ~max_size:6 in
  let part = Solvers.Multilevel.partition rng hg ~k:4 in
  Test.make ~name:"v-cycle (n=1000, m=1500, k=4)"
    (Staged.stage (fun () ->
         ignore (Solvers.Multilevel.vcycle rng hg (Partition.copy part))))

let hier_cost_bench () =
  let rng = Support.Rng.create 8 in
  let hg = Workloads.Rand_hg.uniform rng ~n:1000 ~m:1500 ~min_size:2 ~max_size:6 in
  let topo = Hierarchy.Topology.uniform_binary ~depth:3 ~g:4.0 in
  let part = Partition.random rng ~k:8 ~n:1000 in
  Test.make ~name:"hierarchical cost (n=1000, d=3)"
    (Staged.stage (fun () -> ignore (Hierarchy.Hier_cost.cost topo hg part)))

(* Returns (name, estimated ns/run) rows for the JSON report. *)
let micro_benchmarks () =
  print_endline "\n== Bechamel micro-benchmarks (time per run) ==";
  let tests =
    [
      connectivity_bench (); cutnet_bench (); fm_pass_bench ();
      fm_kway_bench (); coarsen_bench (); multilevel_bench ();
      recognition_bench ();
      matching_bench (); kl_bench (); vcycle_bench (); hier_cost_bench ();
    ]
    @ List.map (fun threads -> par_multilevel_bench ~threads ()) [ 1; 2; 4; 8 ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let rows = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              let pretty =
                if est >= 1e9 then Printf.sprintf "%8.2f s " (est /. 1e9)
                else if est >= 1e6 then Printf.sprintf "%8.2f ms" (est /. 1e6)
                else if est >= 1e3 then Printf.sprintf "%8.2f us" (est /. 1e3)
                else Printf.sprintf "%8.0f ns" est
              in
              rows := (name, est) :: !rows;
              Printf.printf "  %-48s %s/run\n%!" name pretty
          | _ -> Printf.printf "  %-48s (no estimate)\n%!" name)
        analyzed)
    tests;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* JSON report (schema Obs.bench_schema_version) *)

(* One report section per experiment outcome: id, engine timing and the
   worker's observability snapshot (counters, gauges, histograms, span
   rollup), lifted to the top level of the section as in bench/1. *)
let experiment_row (o : Engine.Batch.outcome) =
  let record = o.Engine.Batch.record in
  let open Obs.Json in
  let metric name =
    List.assoc_opt name record.Engine.Record.metrics
  in
  let observed_fields =
    match record.Engine.Record.observed with
    | Some (Obj fields) -> fields
    | _ -> []
  in
  Obj
    ([
       ( "id",
         match metric "id" with
         | Some v -> v
         | None -> Str (Engine.Spec.describe record.Engine.Record.job) );
     ]
    @ (match metric "what" with Some v -> [ ("what", v) ] | None -> [])
    @ [
        ( "status",
          Str (Engine.Record.status_name record.Engine.Record.status) );
        ( "wall_s",
          Float record.Engine.Record.timing.Engine.Record.wall_s );
        ("attempts", Int record.Engine.Record.timing.Engine.Record.attempts);
        ("worker", Int record.Engine.Record.timing.Engine.Record.worker);
        ("cached", Bool o.Engine.Batch.cached);
      ]
    @ observed_fields)

let write_report ~out ~rev ~jobs ~report ~micro =
  let open Obs.Json in
  let engine_section =
    match (report : Engine.Batch.report option) with
    | None ->
        (* Micro-only run: no experiments went through the engine. *)
        Obj [ ("jobs", Int jobs) ]
    | Some r ->
        Obj
          [
            ("jobs", Int jobs);
            ("wall_s", Float r.Engine.Batch.wall_s);
            ("stats", Engine.Batch.stats_to_json r.Engine.Batch.stats);
          ]
  in
  let experiments =
    match report with
    | None -> []
    | Some r -> List.map experiment_row r.Engine.Batch.outcomes
  in
  let doc =
    Obj
      [
        ("schema", Str Obs.bench_schema_version);
        ("git_rev", Str rev);
        ("ocaml_version", Str Sys.ocaml_version);
        (* Full provenance object (hostname, word size, ...) — git_rev and
           ocaml_version stay at the top level too so bench/2 consumers
           keep working unchanged. *)
        ("provenance", Obj (Engine.Provenance.collect ~jobs ()));
        ("unix_time", Float (Unix.time ()));
        ("engine", engine_section);
        ("experiments", Arr experiments);
        ( "micro",
          Arr
            (List.map
               (fun (name, ns) ->
                 Obj [ ("name", Str name); ("ns_per_run", Float ns) ])
               micro) );
      ]
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (to_string doc);
      output_char oc '\n');
  Printf.printf "\nwrote %s\n" out

let usage () =
  prerr_endline
    "usage: main.exe [--micro] [--experiments] [E<k> ...] [--out FILE]\n\
    \                [--jobs N] [--timeout SECS] [--cache-dir DIR]\n\
    \                [--no-cache]\n\
    \                [--compare BASELINE.json] [--threshold PCT]"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      usage ();
      exit 2)
    fmt

let () =
  let micro_only = ref false in
  let experiments_only = ref false in
  let picked = ref [] in
  let out = ref None in
  let jobs = ref 1 in
  let timeout = ref None in
  let cache_dir = ref Engine.Batch.default_cache_dir in
  let no_cache = ref false in
  let compare_with = ref None in
  let threshold = ref 25.0 in
  let int_value flag v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ -> die "%s needs a positive integer, got %S" flag v
  in
  let float_value flag v =
    match float_of_string_opt v with
    | Some f when f > 0.0 -> f
    | _ -> die "%s needs a positive number, got %S" flag v
  in
  let rec parse = function
    | [] -> ()
    | "--micro" :: rest ->
        micro_only := true;
        parse rest
    | "--experiments" :: rest ->
        experiments_only := true;
        parse rest
    | "--out" :: file :: rest ->
        out := Some file;
        parse rest
    | "--jobs" :: v :: rest ->
        jobs := int_value "--jobs" v;
        parse rest
    | "--timeout" :: v :: rest ->
        timeout := Some (float_value "--timeout" v);
        parse rest
    | "--cache-dir" :: dir :: rest ->
        cache_dir := dir;
        parse rest
    | "--no-cache" :: rest ->
        no_cache := true;
        parse rest
    | "--compare" :: file :: rest ->
        compare_with := Some file;
        parse rest
    | "--threshold" :: v :: rest ->
        threshold := float_value "--threshold" v;
        parse rest
    | [ ("--out" | "--jobs" | "--timeout" | "--cache-dir" | "--compare"
        | "--threshold") as flag ] ->
        die "%s needs a value" flag
    | id :: rest when String.length id >= 2 && id.[0] = 'E' ->
        if List.mem id Experiments.ids then begin
          picked := !picked @ [ id ];
          parse rest
        end
        else
          die "unknown experiment %s; valid experiments: %s" id
            (String.concat " " Experiments.ids)
    | arg :: _ -> die "unknown argument %s" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let experiment_ids =
    if !picked <> [] then !picked
    else if !micro_only && not !experiments_only then []
    else Experiments.ids
  in
  let run_micro = !micro_only || ((not !experiments_only) && !picked = []) in
  let report =
    if experiment_ids = [] then None
    else begin
      let plans =
        List.map
          (fun id ->
            {
              Engine.Spec.instance = Engine.Spec.Experiment id;
              config = Engine.Spec.default_config;
              seed = 0;
              timeout_s = !timeout;
            })
          experiment_ids
      in
      let config =
        {
          Engine.Batch.pool =
            {
              Engine.Pool.default_config with
              jobs = !jobs;
              default_timeout_s = !timeout;
              handle_sigint = true;
            };
          cache_dir = (if !no_cache then None else Some !cache_dir);
        }
      in
      let on_event = function
        | Engine.Batch.Cache_hit { record; _ } ->
            Printf.printf "[cache]   %s\n%!"
              (Engine.Spec.describe record.Engine.Record.job)
        | Engine.Batch.Unrunnable { record; _ } ->
            Printf.printf "[error]   %s\n%!"
              (Engine.Spec.describe record.Engine.Record.job)
        | Engine.Batch.Pool (Engine.Pool.Started { job; worker; _ }) ->
            Printf.printf "[w%d]      %s\n%!" worker
              (Engine.Spec.describe job)
        | Engine.Batch.Pool (Engine.Pool.Finished { record; _ }) ->
            Printf.printf "[%s] %6.2fs %s\n%!"
              (Engine.Record.status_name record.Engine.Record.status)
              record.Engine.Record.timing.Engine.Record.wall_s
              (Engine.Spec.describe record.Engine.Record.job)
        | Engine.Batch.Pool (Engine.Pool.Retrying { job; attempt; _ }) ->
            Printf.printf "[retry]   %s (attempt %d)\n%!"
              (Engine.Spec.describe job) attempt
        | Engine.Batch.Pool (Engine.Pool.Interrupted { pending }) ->
            Printf.printf "[sigint]  skipping %d queued experiments\n%!"
              pending
      in
      match Engine.Batch.run ~on_event config plans with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2
      | Ok report -> Some report
    end
  in
  (* Micro rows must stay AFTER the experiment pool: the parallel
     multilevel rows at threads >= 2 spawn domains, and the runtime
     refuses Unix.fork in a process that ever created one (fork first,
     domains second — the lib/parallel lifecycle contract). *)
  let micro_rows = if run_micro then micro_benchmarks () else [] in
  let rev = Engine.Provenance.git_rev () in
  let out =
    match !out with
    | Some file -> file
    | None -> Printf.sprintf "BENCH_%s.json" rev
  in
  write_report ~out ~rev ~jobs:!jobs ~report ~micro:micro_rows;
  (* Regression gate: compare the report just written against a committed
     baseline.  Experiments gate on wall time at the given threshold; micro
     rows are informational (see Engine.Bench_compare). *)
  (match !compare_with with
  | None -> ()
  | Some baseline -> (
      match
        Engine.Bench_compare.compare_files ~threshold_pct:!threshold ~baseline
          ~current:out ()
      with
      | Error msg ->
          Printf.eprintf "compare error: %s\n" msg;
          exit 2
      | Ok cmp ->
          print_newline ();
          print_string (Engine.Bench_compare.render cmp);
          if not (Engine.Bench_compare.ok cmp) then exit 1));
  match report with
  | Some r when not (Engine.Batch.all_ok r) -> exit 1
  | _ -> ()
