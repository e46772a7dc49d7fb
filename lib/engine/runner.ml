(* Worker-side job execution.

   [execute] materializes the instance, runs the work, audits the result
   with the lib/analysis auditors, and packages everything as a
   Record.payload — it runs inside the forked worker, so it never prints
   and never exits on a deterministic failure (it returns [`Failed]
   instead; the coordinator decides what a failure means).

   The payload's deterministic metrics depend only on the job plan: the
   rng is created from the job seed, instances are materialized the same
   way every time, and costs are recomputed from first principles by the
   auditors before the result is allowed to be cached. *)

let snapshot_to_json (snap : Obs.snapshot) =
  let open Obs.Json in
  Obj
    [
      ( "counters",
        Obj (List.map (fun (name, v) -> (name, Int v)) snap.Obs.counters) );
      ( "gauges",
        Obj (List.map (fun (name, v) -> (name, Float v)) snap.Obs.gauges) );
      ( "histograms",
        Obj
          (List.map
             (fun (name, h) ->
               ( name,
                 Obj
                   [
                     ("count", Int h.Obs.h_count);
                     ("sum", Float h.Obs.h_sum);
                     ("min", Float h.Obs.h_min);
                     ("max", Float h.Obs.h_max);
                     ("last", Float h.Obs.h_last);
                   ] ))
             snap.Obs.histograms) );
      ( "spans",
        Arr
          (List.map
             (fun s ->
               Obj
                 [
                   ("path", Str s.Obs.s_path);
                   ("count", Int s.Obs.s_count);
                   ( "total_s",
                     Float (Support.Util.seconds_of_ns s.Obs.s_total_ns) );
                   ("min_s", Float (Support.Util.seconds_of_ns s.Obs.s_min_ns));
                   ("max_s", Float (Support.Util.seconds_of_ns s.Obs.s_max_ns));
                 ])
             snap.Obs.spans) );
    ]

let failed msg = Error msg

(* ---- partition jobs ----------------------------------------------------- *)

let load_hypergraph path =
  match Hypergraph.Hmetis.load path with
  | hg -> Ok hg
  | exception Failure msg -> failed msg
  | exception Sys_error msg -> failed msg

let generate_hypergraph ~seed (kind : Spec.gen_kind) n =
  let rng = Support.Rng.create seed in
  match kind with
  | Spec.Uniform ->
      Some
        (Workloads.Rand_hg.uniform rng ~n ~m:(3 * n / 2) ~min_size:2
           ~max_size:6)
  | Spec.Two_regular ->
      Some (Workloads.Rand_hg.two_regular rng ~n ~m:(max 2 (n / 2)))
  | Spec.Planted ->
      Some
        (Workloads.Rand_hg.planted rng ~n ~m:(2 * n) ~k:4 ~locality:0.9
           ~edge_size:4)
  | Spec.Spmv ->
      let side = max 2 (int_of_float (sqrt (float_of_int n))) in
      Some
        (Workloads.Spmv.fine_grain (Workloads.Spmv.banded ~size:side ~bandwidth:2))
  | Spec.Fft | Spec.Stencil -> None

let generate_dag ~seed:_ (kind : Spec.gen_kind) n =
  match kind with
  | Spec.Fft ->
      let stages = max 1 (int_of_float (Float.log2 (float_of_int (max 2 n)))) in
      Some (Workloads.Dag_gen.fft ~stages)
  | Spec.Stencil ->
      let side = max 2 (int_of_float (sqrt (float_of_int n))) in
      Some (Workloads.Dag_gen.stencil_1d ~width:side ~steps:side)
  | _ -> None

let solve (config : Spec.config) ~threads ~seed hg =
  let { Spec.k; eps; algorithm; metric } = config in
  Result.bind (Spec.validate_k ~n:(Hypergraph.num_nodes hg) k) @@ fun () ->
  let rng = Support.Rng.create seed in
  match algorithm with
  | Spec.Multilevel ->
      Ok
        (Solvers.Multilevel.partition
           ~config:{ Solvers.Multilevel.eps; metric; threads }
           rng hg ~k)
  | Spec.Recursive ->
      Ok (Solvers.Recursive.bisection ~eps ~metric rng hg ~k)
  | Spec.Fm ->
      let part = Solvers.Initial.random_balanced ~eps rng hg ~k in
      ignore
        (Solvers.Refine.refine
           ~config:{ Solvers.Refine.eps; metric }
           hg part);
      Ok part
  | Spec.Bfs -> Ok (Solvers.Initial.bfs_growth ~eps rng hg ~k)
  | Spec.Random -> Ok (Solvers.Initial.random_balanced ~eps rng hg ~k)
  | Spec.Exact ->
      if Hypergraph.num_nodes hg > 24 then
        failed
          (Printf.sprintf "exact solver limited to 24 nodes (got %d)"
             (Hypergraph.num_nodes hg))
      else (
        match Solvers.Exact.solve ~metric ~eps hg ~k with
        | Some { Solvers.Exact.part; _ } -> Ok part
        | None -> failed "no eps-balanced partition exists")

(* Validation gate: a partition result is only reportable (hence only
   cacheable) when the first-principles auditors sign off on both the
   instance representation and the partition. *)
let audit_partition ~eps hg part =
  let merged =
    Analysis.Check.merge ~subject:"engine job"
      [ Analysis.Audit_hg.audit hg; Analysis.Audit_partition.audit ~eps hg part ]
  in
  if Analysis.Check.ok merged then Ok ()
  else
    failed
      (Printf.sprintf "audit violations: %s"
         (String.concat ", " (Analysis.Check.violated_rules merged)))

let run_partition (config : Spec.config) ~threads ~seed hg =
  match solve config ~threads ~seed hg with
  | Error msg -> failed msg
  | Ok part -> (
      match audit_partition ~eps:config.Spec.eps hg part with
      | Error msg -> failed msg
      | Ok () ->
          let open Obs.Json in
          Ok
            [
              ("n", Int (Hypergraph.num_nodes hg));
              ("m", Int (Hypergraph.num_edges hg));
              ("pins", Int (Hypergraph.num_pins hg));
              ("k", Int (Partition.k part));
              ("connectivity", Int (Partition.connectivity_cost hg part));
              ("cutnet", Int (Partition.cutnet_cost hg part));
              ("imbalance", Float (Partition.imbalance hg part));
              ( "balanced",
                Bool (Partition.is_balanced ~eps:config.Spec.eps hg part) );
            ])

(* ---- scheduling jobs ---------------------------------------------------- *)

let run_schedule (config : Spec.config) dag =
  let k = config.Spec.k in
  let sched = Scheduling.List_sched.schedule dag ~k in
  let makespan = Scheduling.Schedule.makespan sched in
  let report = Analysis.Audit_schedule.audit ~k ~claimed_makespan:makespan dag sched in
  if not (Analysis.Check.ok report) then
    failed
      (Printf.sprintf "audit violations: %s"
         (String.concat ", " (Analysis.Check.violated_rules report)))
  else
    let open Obs.Json in
    Ok
      [
        ("n", Int (Hyperdag.Dag.num_nodes dag));
        ("m", Int (Hyperdag.Dag.num_edges dag));
        ("k", Int k);
        ("critical_path", Int (Hyperdag.Dag.critical_path_length dag));
        ("lower_bound", Int (Scheduling.Mu.lower_bound dag ~k));
        ("makespan", Int makespan);
      ]

let load_dag path =
  match Hyperdag.Dag_io.load path with
  | dag -> Ok dag
  | exception Failure msg -> failed msg
  | exception Sys_error msg -> failed msg

(* ---- experiments -------------------------------------------------------- *)

let run_experiment id =
  match
    List.find_opt (fun (eid, _, _) -> String.equal eid id) Experiments.all
  with
  | None ->
      failed
        (Printf.sprintf "unknown experiment %s; valid experiments: %s" id
           (String.concat " " Experiments.ids))
  | Some (eid, what, run) ->
      run ();
      Ok [ ("id", Obs.Json.Str eid); ("what", Obs.Json.Str what) ]

(* ---- dispatch ----------------------------------------------------------- *)

let run_job ?(lookup = fun (_ : string) -> None) ~threads (job : Spec.job) =
  match job.Spec.instance with
  | Spec.Hmetis_file path -> (
      (* The serve daemon keeps parsed hypergraphs in a hot-instance LRU
         (lib/server/instances.ml) populated before the worker forks;
         the copy-on-write mapping makes the parsed structure free to
         consult here, skipping the load and parse entirely. *)
      match lookup path with
      | Some hg -> run_partition job.Spec.config ~threads ~seed:job.Spec.seed hg
      | None -> (
          match load_hypergraph path with
          | Error msg -> failed msg
          | Ok hg ->
              run_partition job.Spec.config ~threads ~seed:job.Spec.seed hg))
  | Spec.Generated { kind; n } -> (
      match generate_hypergraph ~seed:job.Spec.seed kind n with
      | Some hg -> run_partition job.Spec.config ~threads ~seed:job.Spec.seed hg
      | None -> (
          match generate_dag ~seed:job.Spec.seed kind n with
          | Some dag -> run_schedule job.Spec.config dag
          | None -> failed "generator produced no instance"))
  | Spec.Dag_file path -> (
      match load_dag path with
      | Error msg -> failed msg
      | Ok dag -> run_schedule job.Spec.config dag)
  | Spec.Experiment id -> run_experiment id
  | Spec.Spin seconds ->
      Unix.sleepf seconds;
      Ok [ ("spun_s", Obs.Json.Float seconds) ]
  | Spec.Crash code ->
      (* Fault-injection drill: die without completing the worker
         protocol, exactly like a real crash would. *)
      Unix._exit code

let execute ?lookup ?(threads = 0) (job : Spec.job) =
  match Spec.validate job with
  | Error msg -> { Record.p_status = `Failed msg; p_metrics = []; p_observed = None }
  | Ok () ->
      Obs.set_enabled true;
      Obs.reset_stats ();
      let result =
        Obs.Span.with_
          ~attrs:[ ("job", Obs.Str (Spec.describe job)) ]
          "engine.job"
          (fun () ->
            let alloc0 =
              if Obs.Prof.enabled () then Obs.Prof.allocated_words () else 0.0
            in
            let r = run_job ?lookup ~threads job in
            if Obs.Prof.enabled () then begin
              (* Solve end: stamp the job's allocation bill on its span
                 and record the heap state the solve left behind. *)
              Obs.Span.attr "gc.alloc_words"
                (Obs.Float (Obs.Prof.allocated_words () -. alloc0));
              Obs.Prof.sample ()
            end;
            r)
      in
      let observed = Some (snapshot_to_json (Obs.snapshot ())) in
      (match result with
      | Ok metrics ->
          { Record.p_status = `Done; p_metrics = metrics; p_observed = observed }
      | Error msg ->
          {
            Record.p_status = `Failed msg;
            p_metrics = [];
            p_observed = observed;
          })
