(* lib/engine: fingerprinting, job plans, result records, the
   content-addressed cache, manifest expansion, the fork pool's fault
   isolation, and the batch determinism guarantee (same manifest at
   --jobs 1 and --jobs 8 gives byte-identical deterministic records). *)

module E = Engine

let temp_dir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  Sys.mkdir base 0o700;
  base

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> output_string oc content)

let gen_job ?(k = 2) ?(seed = 1) ?(n = 40) ?timeout_s () =
  {
    E.Spec.instance = E.Spec.Generated { kind = E.Spec.Uniform; n };
    config = { E.Spec.default_config with E.Spec.k };
    seed;
    timeout_s;
  }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let fingerprint_exn job =
  match E.Spec.fingerprint ~schema:E.Record.schema_version job with
  | Ok fp -> fp
  | Error e -> Alcotest.failf "fingerprint failed: %s" e

(* ---- fingerprint --------------------------------------------------------- *)

let test_fnv1a_golden () =
  (* Published FNV-1a 64-bit test vectors. *)
  Alcotest.(check string) "empty" "cbf29ce484222325" (E.Fingerprint.digest "");
  Alcotest.(check string) "a" "af63dc4c8601ec8c" (E.Fingerprint.digest "a");
  Alcotest.(check bool) "order sensitive" true
    (E.Fingerprint.digest "ab" <> E.Fingerprint.digest "ba");
  Alcotest.(check bool) "is_digest accepts" true
    (E.Fingerprint.is_digest (E.Fingerprint.digest "x"));
  Alcotest.(check bool) "is_digest rejects short" false
    (E.Fingerprint.is_digest "abc");
  Alcotest.(check bool) "is_digest rejects uppercase" false
    (E.Fingerprint.is_digest "CBF29CE484222325")

let test_fingerprint_identity () =
  let fp = fingerprint_exn (gen_job ()) in
  Alcotest.(check bool) "well-formed" true (E.Fingerprint.is_digest fp);
  Alcotest.(check string) "deterministic" fp (fingerprint_exn (gen_job ()));
  Alcotest.(check bool) "seed changes it" true
    (fp <> fingerprint_exn (gen_job ~seed:2 ()));
  Alcotest.(check bool) "config changes it" true
    (fp <> fingerprint_exn (gen_job ~k:4 ()));
  (* The timeout bounds a run; it does not change what the job computes,
     so it is excluded from the identity by design. *)
  Alcotest.(check string) "timeout excluded" fp
    (fingerprint_exn (gen_job ~timeout_s:5.0 ()));
  (* The result-schema version is mixed in: bumping it invalidates all
     cached fingerprints. *)
  match E.Spec.fingerprint ~schema:"hypartition-result/999" (gen_job ()) with
  | Ok fp' -> Alcotest.(check bool) "schema mixed in" true (fp <> fp')
  | Error e -> Alcotest.failf "fingerprint failed: %s" e

let test_fingerprint_file_content () =
  let dir = temp_dir "hyp_fp" in
  let path = Filename.concat dir "inst.hgr" in
  write_file path "1 3\n1 2\n";
  let job timeout_s =
    { (gen_job ~timeout_s ()) with E.Spec.instance = E.Spec.Hmetis_file path }
  in
  let fp1 = fingerprint_exn (job 1.0) in
  write_file path "1 3\n2 3\n";
  let fp2 = fingerprint_exn (job 1.0) in
  Alcotest.(check bool) "content hashed, not the path" true (fp1 <> fp2);
  (* An unreadable instance cannot be fingerprinted — an Error, not an
     exception. *)
  let missing =
    { (gen_job ()) with
      E.Spec.instance = E.Spec.Hmetis_file (Filename.concat dir "absent.hgr")
    }
  in
  match E.Spec.fingerprint ~schema:E.Record.schema_version missing with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a missing instance file"

(* ---- spec and record codecs ---------------------------------------------- *)

let test_spec_roundtrip () =
  let jobs =
    [
      gen_job ~k:4 ~seed:7 ~timeout_s:2.5 ();
      { (gen_job ()) with E.Spec.instance = E.Spec.Hmetis_file "x.hgr" };
      { (gen_job ()) with E.Spec.instance = E.Spec.Dag_file "y.dag" };
      { (gen_job ()) with E.Spec.instance = E.Spec.Experiment "E3" };
      { (gen_job ()) with E.Spec.instance = E.Spec.Spin 1.5 };
      { (gen_job ()) with E.Spec.instance = E.Spec.Crash 66 };
      (* The writer renders eps = inf as null, the value it reads back. *)
      { (gen_job ()) with
        E.Spec.config = { E.Spec.default_config with E.Spec.eps = infinity } };
    ]
  in
  List.iter
    (fun job ->
      match E.Spec.of_json (E.Spec.to_json job) with
      | Ok job' ->
          Alcotest.(check string) "roundtrip" (E.Spec.describe job)
            (E.Spec.describe job');
          Alcotest.(check bool) "identical" true (job = job')
      | Error e -> Alcotest.failf "spec roundtrip failed: %s" e)
    jobs;
  (match E.Spec.of_json (Obs.Json.Str "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed spec JSON must not decode");
  (* A mistyped timeout is an error naming it, not a missing budget; a
     null one is no budget. *)
  let with_timeout v =
    match E.Spec.to_json (gen_job ()) with
    | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ [ ("timeout_s", v) ])
    | other -> other
  in
  (match E.Spec.of_json (with_timeout (Obs.Json.Str "1")) with
  | Error e ->
      Alcotest.(check bool) "names timeout_s" true
        (contains e "\"timeout_s\"")
  | Ok _ -> Alcotest.fail "\"timeout_s\": \"1\" must not decode");
  match E.Spec.of_json (with_timeout Obs.Json.Null) with
  | Ok job ->
      Alcotest.(check (option (float 0.0))) "null timeout" None
        job.E.Spec.timeout_s
  | Error e -> Alcotest.failf "\"timeout_s\": null rejected: %s" e

let test_record_roundtrip () =
  let record =
    {
      E.Record.fingerprint = E.Fingerprint.digest "probe";
      job = gen_job ();
      status = E.Record.Failed "Runner.execute: boom";
      metrics = [ ("n", Obs.Json.Int 40) ];
      observed = Some (Obs.Json.Obj [ ("counters", Obs.Json.Obj []) ]);
      timing = { E.Record.wall_s = 0.25; attempts = 2; worker = 3; threads = 2 };
    }
  in
  (match E.Record.of_json (E.Record.to_json record) with
  | Ok r ->
      Alcotest.(check string) "deterministic part survives"
        (E.Record.deterministic_string record)
        (E.Record.deterministic_string r);
      Alcotest.(check int) "attempts survive" 2 r.E.Record.timing.E.Record.attempts
  | Error e -> Alcotest.failf "record roundtrip failed: %s" e);
  (* The deterministic rendering quantifies over everything except timing
     and the observability snapshot. *)
  let shifted =
    { record with
      E.Record.timing = { E.Record.wall_s = 99.0; attempts = 1; worker = 0; threads = 0 };
      observed = None }
  in
  Alcotest.(check string) "timing/observed excluded"
    (E.Record.deterministic_string record)
    (E.Record.deterministic_string shifted);
  Alcotest.(check bool) "only Done is cacheable" false
    (E.Record.cacheable record)

(* ---- cache --------------------------------------------------------------- *)

let done_record job =
  {
    E.Record.fingerprint = fingerprint_exn job;
    job;
    status = E.Record.Done;
    metrics = [ ("connectivity", Obs.Json.Int 12) ];
    observed = None;
    timing = { E.Record.wall_s = 0.01; attempts = 1; worker = 0; threads = 0 };
  }

let open_cache dir =
  match E.Cache.open_ dir with
  | Ok c -> c
  | Error e -> Alcotest.failf "cache open failed: %s" e

let test_cache_roundtrip () =
  let dir = temp_dir "hyp_cache" in
  let cache = open_cache dir in
  let record = done_record (gen_job ()) in
  Alcotest.(check bool) "cold lookup misses" true
    (E.Cache.find cache record.E.Record.fingerprint = None);
  (match E.Cache.store cache record with
  | Ok () -> ()
  | Error e -> Alcotest.failf "store failed: %s" e);
  (match E.Cache.find cache record.E.Record.fingerprint with
  | Some r ->
      Alcotest.(check string) "identical deterministic record"
        (E.Record.deterministic_string record)
        (E.Record.deterministic_string r)
  | None -> Alcotest.fail "stored record must be found");
  let stats = E.Cache.stats cache in
  Alcotest.(check int) "one hit" 1 stats.E.Cache.hits;
  Alcotest.(check int) "one miss" 1 stats.E.Cache.misses;
  Alcotest.(check int) "one store" 1 stats.E.Cache.stores;
  (* Atomic stores leave no temp files behind. *)
  let rec files dir =
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  Alcotest.(check bool) "no temp litter" true
    (List.for_all
       (fun p -> Filename.check_suffix p ".json")
       (files dir))

let test_cache_rejects_defects () =
  let dir = temp_dir "hyp_cache" in
  let cache = open_cache dir in
  let record = done_record (gen_job ()) in
  (* Only Done records are cacheable. *)
  (match
     E.Cache.store cache
       { record with E.Record.status = E.Record.Failed "Runner.execute: x" }
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-Done record must not store");
  (* A corrupted entry degrades to a miss plus a corrupt tick. *)
  let path = E.Cache.path_of cache record.E.Record.fingerprint in
  (match Sys.mkdir (Filename.dirname path) 0o700 with
  | () -> ()
  | exception Sys_error _ -> ());
  write_file path "{ not json";
  Alcotest.(check bool) "corrupt entry is a miss" true
    (E.Cache.find cache record.E.Record.fingerprint = None);
  (* A record whose fingerprint echo disagrees with its filename is
     foreign: also a miss. *)
  write_file path
    (Obs.Json.to_string (E.Record.to_json (done_record (gen_job ~seed:9 ()))));
  Alcotest.(check bool) "wrong echo is a miss" true
    (E.Cache.find cache record.E.Record.fingerprint = None);
  let stats = E.Cache.stats cache in
  Alcotest.(check int) "corrupt ticks" 2 stats.E.Cache.corrupt;
  Alcotest.check_raises "malformed fingerprint"
    (Invalid_argument "Cache.path_of: malformed fingerprint") (fun () ->
      ignore (E.Cache.path_of cache "nope"))

(* ---- manifest ------------------------------------------------------------ *)

let manifest_text =
  {|{
  "schema": "hypartition-manifest/1",
  "defaults": { "k": 2, "eps": 0.03, "seed": 5, "timeout_s": 30.0 },
  "instances": [
    { "generate": "uniform", "n": 30 },
    { "experiment": "E1" },
    { "spin": 9.0, "timeout_s": 1.0 }
  ],
  "configs": [ { "k": 2 }, { "k": 4, "algorithm": "bfs" } ],
  "seeds": [ 1, 2, 3 ]
}|}

let test_manifest_expansion () =
  match E.Manifest.of_string ~known_experiments:[ "E1" ] manifest_text with
  | Error e -> Alcotest.failf "manifest failed: %s" e
  | Ok jobs ->
      (* 1 sweepable instance x 2 configs x 3 seeds + experiment + drill. *)
      Alcotest.(check int) "expansion count" 8 (List.length jobs);
      let seeds =
        List.filter_map
          (fun (j : E.Spec.job) ->
            match j.E.Spec.instance with
            | E.Spec.Generated _ -> Some (j.E.Spec.config.E.Spec.k, j.E.Spec.seed)
            | _ -> None)
          jobs
      in
      Alcotest.(check (list (pair int int)))
        "deterministic order: configs outer, seeds inner"
        [ (2, 1); (2, 2); (2, 3); (4, 1); (4, 2); (4, 3) ]
        seeds;
      let drill =
        List.find
          (fun (j : E.Spec.job) ->
            match j.E.Spec.instance with E.Spec.Spin _ -> true | _ -> false)
          jobs
      in
      Alcotest.(check (option (float 1e-9))) "per-entry timeout override"
        (Some 1.0) drill.E.Spec.timeout_s;
      Alcotest.(check bool) "drills pin config and seed" true
        (drill.E.Spec.config = E.Spec.default_config && drill.E.Spec.seed = 0);
      let experiment =
        List.find
          (fun (j : E.Spec.job) ->
            match j.E.Spec.instance with
            | E.Spec.Experiment _ -> true
            | _ -> false)
          jobs
      in
      Alcotest.(check (option (float 1e-9))) "defaults timeout applies"
        (Some 30.0) experiment.E.Spec.timeout_s

let test_manifest_errors () =
  let expect name text =
    match E.Manifest.of_string ~known_experiments:[ "E1" ] text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: manifest unexpectedly parsed" name
  in
  expect "not JSON" "nonsense";
  expect "wrong schema" {|{ "schema": "hypartition-manifest/9" }|};
  expect "no instances"
    {|{ "schema": "hypartition-manifest/1", "instances": [] }|};
  expect "unknown generator"
    {|{ "schema": "hypartition-manifest/1",
        "instances": [ { "generate": "warp", "n": 4 } ] }|};
  expect "unknown experiment"
    {|{ "schema": "hypartition-manifest/1",
        "instances": [ { "experiment": "E99" } ] }|};
  expect "unknown algorithm"
    {|{ "schema": "hypartition-manifest/1",
        "instances": [ { "generate": "uniform", "n": 4 } ],
        "configs": [ { "algorithm": "quantum" } ] }|};
  expect "invalid job shape"
    {|{ "schema": "hypartition-manifest/1",
        "defaults": { "k": 0 },
        "instances": [ { "generate": "uniform", "n": 4 } ] }|};
  (* A field of the wrong type is an error naming it, never the default
     it would otherwise fall back to. *)
  let mistyped ~field sweep =
    let text =
      Printf.sprintf
        {|{ "schema": "hypartition-manifest/1", %s,
            "instances": [ { "generate": "uniform", "n": 4 } ] }|}
        sweep
    in
    match E.Manifest.of_string ~known_experiments:[ "E1" ] text with
    | Error e ->
        if not (contains e (Printf.sprintf "%S" field)) then
          Alcotest.failf "%s: error %S does not name %S" sweep e field
    | Ok _ -> Alcotest.failf "%s: manifest unexpectedly parsed" sweep
  in
  mistyped ~field:"k" {|"defaults": { "k": "8" }|};
  mistyped ~field:"eps" {|"defaults": { "eps": "0.5" }|};
  mistyped ~field:"seed" {|"defaults": { "seed": "7" }|};
  mistyped ~field:"timeout_s" {|"defaults": { "timeout_s": "1" }|};
  mistyped ~field:"k" {|"configs": [ { "k": 2.5 } ]|};
  mistyped ~field:"algorithm" {|"configs": [ { "algorithm": 3 } ]|}

(* A generated job is sized by its n alone, so validation bounds it by
   the node limit the file readers share. *)
let test_spec_validate_generated_size () =
  let check name expected n =
    Alcotest.(check (result unit string)) name expected
      (E.Spec.validate (gen_job ~n ()))
  in
  let limit = Hypergraph.max_nodes in
  check "n = 1 accepted" (Ok ()) 1;
  check "n at the limit accepted" (Ok ()) limit;
  check "n = 0 rejected" (Error "generated instance needs n >= 1 (got 0)") 0;
  check "n above the limit rejected"
    (Error
       (Printf.sprintf "generated instance needs n <= %d (got %d)" limit
          (limit + 1)))
    (limit + 1)

(* The committed paper-suite manifest, the one `hypartition batch
   --manifest examples/manifests/paper.json` regenerates the paper from:
   exactly one experiment job per registered id, in paper order. *)
let test_paper_manifest () =
  match
    E.Manifest.load ~known_experiments:Experiments.ids
      (Repo_file.path "examples/manifests/paper.json")
  with
  | Error e -> Alcotest.failf "paper manifest: %s" e
  | Ok jobs ->
      Alcotest.(check (list string))
        "one experiment job per id, in order" Experiments.ids
        (List.map
           (fun (j : E.Spec.job) ->
             match j.E.Spec.instance with
             | E.Spec.Experiment id -> id
             | _ ->
                 Alcotest.failf "not an experiment job: %s" (E.Spec.describe j))
           jobs)

(* ---- runner (in-process) ------------------------------------------------- *)

let test_runner_execute () =
  let payload = E.Runner.execute (gen_job ~n:30 ()) in
  (match payload.E.Record.p_status with
  | `Done -> ()
  | `Failed msg -> Alcotest.failf "expected Done, got Failed %s" msg);
  (match List.assoc_opt "connectivity" payload.E.Record.p_metrics with
  | Some (Obs.Json.Int _) -> ()
  | _ -> Alcotest.fail "audited partition metrics expected");
  Alcotest.(check bool) "observability snapshot captured" true
    (payload.E.Record.p_observed <> None);
  (* Deterministic failures are Failed payloads with parser-prefixed
     messages, never exceptions. *)
  let bad =
    { (gen_job ()) with E.Spec.instance = E.Spec.Hmetis_file "/absent.hgr" }
  in
  (match (E.Runner.execute bad).E.Record.p_status with
  | `Failed _ -> ()
  | `Done -> Alcotest.fail "missing instance must fail");
  (* The runner is the one experiment dispatcher: an unknown id fails
     with the list of valid ones. *)
  let unknown =
    { (gen_job ()) with E.Spec.instance = E.Spec.Experiment "E99" }
  in
  match (E.Runner.execute unknown).E.Record.p_status with
  | `Failed msg ->
      let valid = String.concat " " Experiments.ids in
      let n = String.length msg and m = String.length valid in
      let rec has i =
        i + m <= n && (String.sub msg i m = valid || has (i + 1))
      in
      if not (has 0) then
        Alcotest.failf "message %S does not list the valid ids %S" msg valid
  | `Done -> Alcotest.fail "unknown experiment must fail"

let test_runner_determinism () =
  let p1 = E.Runner.execute (gen_job ~n:30 ()) in
  let p2 = E.Runner.execute (gen_job ~n:30 ()) in
  Alcotest.(check bool) "same plan, same metrics" true
    (p1.E.Record.p_metrics = p2.E.Record.p_metrics)

(* Recursive bisection keeps the job's eps over all its splits, so the
   engine's balance audit passes: with the full eps at every split these
   jobs failed with "audit violations: PART-BALANCE". *)
let test_runner_recursive_balanced () =
  List.iter
    (fun (name, k) ->
      let job =
        {
          E.Spec.instance =
            E.Spec.Hmetis_file (Repo_file.path ("examples/instances/" ^ name));
          config =
            {
              E.Spec.default_config with
              E.Spec.k;
              eps = 0.1;
              algorithm = E.Spec.Recursive;
            };
          seed = 1;
          timeout_s = None;
        }
      in
      match (E.Runner.execute job).E.Record.p_status with
      | `Done -> ()
      | `Failed msg -> Alcotest.failf "%s, k = %d: %s" name k msg)
    [ ("small_random.hgr", 3); ("spmv_banded.hgr", 4) ]

(* ---- pool: fault isolation ----------------------------------------------- *)

let quiet_pool jobs =
  {
    E.Pool.default_config with
    E.Pool.jobs;
    retries = 1;
    backoff_s = 0.01;
    silence_worker_stdout = true;
  }

let run_pool ?on_event config plans =
  (* Pool-level tests include plans whose instance file is unreadable and
     therefore unfingerprintable (Batch classifies those before the pool
     ever sees them); key them by description instead. *)
  let key job =
    match E.Spec.fingerprint ~schema:E.Record.schema_version job with
    | Ok fp -> fp
    | Error _ -> E.Fingerprint.digest (E.Spec.describe job)
  in
  let plans = List.mapi (fun i job -> (i, key job, job)) plans in
  E.Pool.run ?on_event config ~worker:(fun job -> E.Runner.execute job) plans

let test_pool_crash_isolation () =
  let plans =
    [
      gen_job ~seed:1 ~n:30 ();
      { (gen_job ()) with E.Spec.instance = E.Spec.Crash 66 };
      gen_job ~seed:2 ~n:30 ();
    ]
  in
  let retries = ref 0 in
  let on_event = function E.Pool.Retrying _ -> incr retries | _ -> () in
  let records = run_pool ~on_event (quiet_pool 4) plans in
  Alcotest.(check int) "one record per plan" 3 (List.length records);
  let statuses =
    List.map (fun r -> E.Record.status_name r.E.Record.status) records
  in
  Alcotest.(check (list string)) "crash costs one result, never the sweep"
    [ "ok"; "crashed"; "ok" ] statuses;
  Alcotest.(check int) "crash retried before giving up" 1 !retries;
  let crashed = List.nth records 1 in
  Alcotest.(check int) "attempts counted" 2
    crashed.E.Record.timing.E.Record.attempts

let test_pool_timeout_kill () =
  let t0 = Support.Util.monotonic_ns () in
  let plans =
    [
      { (gen_job ()) with
        E.Spec.instance = E.Spec.Spin 30.0; timeout_s = Some 0.3 };
      gen_job ~n:30 ();
    ]
  in
  let records = run_pool (quiet_pool 2) plans in
  let wall =
    Support.Util.seconds_of_ns (Int64.sub (Support.Util.monotonic_ns ()) t0)
  in
  (match (List.hd records).E.Record.status with
  | E.Record.Timed_out budget ->
      Alcotest.(check (float 1e-9)) "records its budget" 0.3 budget
  | s -> Alcotest.failf "expected Timed_out, got %s" (E.Record.status_name s));
  Alcotest.(check string) "sibling unaffected" "ok"
    (E.Record.status_name (List.nth records 1).E.Record.status);
  (* The spinner was SIGKILLed at its budget, not run to completion. *)
  Alcotest.(check bool) "killed promptly" true (wall < 10.0)

let test_pool_failed_not_retried () =
  let plans =
    [ { (gen_job ()) with E.Spec.instance = E.Spec.Hmetis_file "/absent.hgr" } ]
  in
  let retries = ref 0 in
  let on_event = function E.Pool.Retrying _ -> incr retries | _ -> () in
  let records = run_pool ~on_event (quiet_pool 2) plans in
  Alcotest.(check string) "deterministic failure" "failed"
    (E.Record.status_name (List.hd records).E.Record.status);
  Alcotest.(check int) "deterministic failures never retry" 0 !retries

(* SIGINT during Pool.run drains: the running worker finishes, the queued
   jobs come back skipped, and the caller's SIGINT disposition returns.
   The signal goes through a shell: system(3) would ignore SIGINT here
   while its child runs, and tests may not call Unix.kill (SRC08). *)
let test_pool_sigint_drain () =
  let plans =
    [
      { (gen_job ()) with E.Spec.instance = E.Spec.Spin 0.3 };
      gen_job ();
      gen_job ();
    ]
  in
  let interrupts = ref [] in
  let on_event = function
    | E.Pool.Started { index = 0; _ } ->
        let kill =
          Unix.open_process_in
            (Printf.sprintf "kill -INT %d" (Unix.getpid ()))
        in
        ignore (Unix.close_process_in kill : Unix.process_status)
    | E.Pool.Interrupted { pending } -> interrupts := pending :: !interrupts
    | _ -> ()
  in
  let original = Sys.signal Sys.sigint Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigint original)
  @@ fun () ->
  let records =
    run_pool ~on_event
      { (quiet_pool 1) with E.Pool.handle_sigint = true }
      plans
  in
  Alcotest.(check (list string)) "running job finishes, queued jobs skipped"
    [ "ok"; "skipped"; "skipped" ]
    (List.map (fun r -> E.Record.status_name r.E.Record.status) records);
  List.iter
    (fun r ->
      match r.E.Record.status with
      | E.Record.Skipped reason ->
          Alcotest.(check string) "skip reason" "interrupted (SIGINT)" reason
      | _ -> ())
    records;
  Alcotest.(check (list int)) "one Interrupted event, both jobs pending"
    [ 2 ] !interrupts;
  match Sys.signal Sys.sigint original with
  | Sys.Signal_ignore -> ()
  | _ -> Alcotest.fail "Pool.run did not restore the SIGINT disposition"

(* ---- cache under concurrent multi-process access ------------------------- *)

let test_cache_concurrent_stores () =
  (* Two forked workers hammer the SAME fingerprint with distinct 64 KiB
     records while the coordinator reads it between pool steps.  The
     contract (see cache.ml): both stores succeed, every read observes
     one record in full — all-'a' or all-'b', never a splice — and the
     validating reader never ticks its corrupt counter.  Tests can't
     fork (SRC08), so concurrency is driven through the incremental
     pool API, which this also exercises. *)
  let dir = temp_dir "hyp_cache_race" in
  let job = gen_job ~n:30 () in
  let fp = fingerprint_exn job in
  let blob_record c =
    {
      E.Record.fingerprint = fp;
      job;
      status = E.Record.Done;
      metrics = [ ("blob", Obs.Json.Str (String.make 65536 c)) ];
      observed = None;
      timing = { E.Record.wall_s = 0.0; attempts = 1; worker = 0; threads = 0 };
    }
  in
  let worker (j : E.Spec.job) =
    (* Runs in the forked child: its own cache handle, its own pid. *)
    let c = if j.E.Spec.seed = 1 then 'a' else 'b' in
    match E.Cache.open_ dir with
    | Error e -> { E.Record.p_status = `Failed e; p_metrics = []; p_observed = None }
    | Ok cache ->
        let failed = ref None in
        for _ = 1 to 200 do
          match E.Cache.store cache (blob_record c) with
          | Ok () -> ()
          | Error e -> failed := Some e
        done;
        (match !failed with
        | Some e -> { E.Record.p_status = `Failed e; p_metrics = []; p_observed = None }
        | None -> { E.Record.p_status = `Done; p_metrics = []; p_observed = None })
  in
  let pool = E.Pool.create (quiet_pool 2) ~worker in
  E.Pool.submit pool ~index:0 ~fingerprint:fp { job with E.Spec.seed = 1 };
  E.Pool.submit pool ~index:1 ~fingerprint:fp { job with E.Spec.seed = 2 };
  let reader = open_cache dir in
  let reads = ref 0 in
  let completed = ref [] in
  while not (E.Pool.idle pool) do
    let records, _ = E.Pool.step ~timeout:0.002 pool in
    List.iter (fun (_, r) -> completed := r :: !completed) records;
    for _ = 1 to 10 do
      match E.Cache.find reader fp with
      | None -> ()
      | Some r -> (
          incr reads;
          match List.assoc_opt "blob" r.E.Record.metrics with
          | Some (Obs.Json.Str s) ->
              Alcotest.(check int) "read is complete" 65536 (String.length s);
              Alcotest.(check bool) "read is one writer's record, not a splice"
                true
                (String.for_all (fun ch -> ch = s.[0]) s)
          | _ -> Alcotest.fail "blob metric missing from raced read")
    done
  done;
  List.iter
    (fun r ->
      Alcotest.(check string) "both writers stored without error" "ok"
        (E.Record.status_name r.E.Record.status))
    !completed;
  Alcotest.(check int) "one record per writer" 2 (List.length !completed);
  Alcotest.(check bool) "reads raced the writers" true (!reads > 0);
  let s = E.Cache.stats reader in
  Alcotest.(check int) "atomic publication: reader never saw a torn record" 0
    s.E.Cache.corrupt;
  (* The final entry is intact and belongs to one of the two writers. *)
  (match E.Cache.find reader fp with
  | Some r -> (
      match List.assoc_opt "blob" r.E.Record.metrics with
      | Some (Obs.Json.Str s) ->
          Alcotest.(check bool) "last rename won cleanly" true
            (String.for_all (fun ch -> ch = s.[0]) s)
      | _ -> Alcotest.fail "blob metric missing from final record")
  | None -> Alcotest.fail "entry must exist after both writers finished");
  (* Renames publish or clean up: no orphaned temp files under the shard
     directory once the writers are done. *)
  let shard = Filename.concat dir (String.sub fp 0 2) in
  let leftovers =
    Array.to_list (Sys.readdir shard)
    |> List.filter (fun f -> not (Filename.check_suffix f ".json"))
  in
  Alcotest.(check (list string)) "no temp files survive" [] leftovers

(* ---- pool: workers held between EOF and exit ----------------------------- *)

(* Reports its seed.  Seed 1 also prints, and a worker flushes its stdout
   only as it exits, after it has reported and closed its status pipe. *)
let held_worker (j : E.Spec.job) =
  if j.E.Spec.seed = 1 then print_string "held";
  {
    E.Record.p_status = `Done;
    p_metrics = [ ("seed", Obs.Json.Int j.E.Spec.seed) ];
    p_observed = None;
  }

(* Runs [f drain] with this process's stdout on a pipe kept full, so a
   forked seed-1 [held_worker] blocks in its exit flush — at EOF on its
   status pipe but not exited — until [drain] empties the pipe.  Stdout
   is restored afterwards. *)
let with_full_stdout f =
  let fill fd size =
    let block = Bytes.make size 'x' in
    try
      while true do
        ignore (Unix.write fd block 0 size : int)
      done
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let out_r, out_w = Unix.pipe () in
  Unix.set_nonblock out_w;
  fill out_w 4096;
  fill out_w 1;
  Unix.clear_nonblock out_w;
  Unix.dup2 out_w Unix.stdout;
  Unix.close out_w;
  let drain () =
    Unix.set_nonblock out_r;
    let buf = Bytes.create 65536 in
    try
      while Unix.read out_r buf 0 65536 > 0 do
        ()
      done
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let restore () =
    drain ();
    Unix.dup2 saved Unix.stdout;
    Unix.close saved;
    Unix.close out_r
  in
  Fun.protect ~finally:restore (fun () -> f drain)

let held_pool slots =
  E.Pool.create
    { (quiet_pool slots) with E.Pool.silence_worker_stdout = false }
    ~worker:held_worker

(* A worker that has closed its status pipe but not yet exited keeps its
   pool entry while a second slot forks, and the new worker's pipe gets
   the lowest free descriptor: the one the finished entry just closed.
   Worker A is held in exactly that window while worker B runs.  B's
   payload must reach B; A must finish once the test drains stdout. *)
let test_pool_fd_reuse () =
  let job = gen_job ~n:30 () in
  let fp = fingerprint_exn job in
  with_full_stdout @@ fun drain ->
  let pool = held_pool 2 in
  let completed = ref [] in
  let step () =
    let records, _ = E.Pool.step ~timeout:0.01 pool in
    completed := records @ !completed
  in
  let step_until what index =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while not (List.mem_assoc index !completed) do
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out waiting for %s" what;
      step ()
    done
  in
  let check_record what index seed =
    let r = List.assoc index !completed in
    Alcotest.(check string) (what ^ " ok") "ok"
      (E.Record.status_name r.E.Record.status);
    Alcotest.(check int) (what ^ " ran once") 1 r.E.Record.timing.E.Record.attempts;
    Alcotest.(check bool) (what ^ " got its own payload") true
      (List.assoc_opt "seed" r.E.Record.metrics = Some (Obs.Json.Int seed))
  in
  E.Pool.submit pool ~index:0 ~fingerprint:fp { job with E.Spec.seed = 1 };
  let until = Unix.gettimeofday () +. 0.3 in
  while Unix.gettimeofday () < until do
    step ()
  done;
  Alcotest.(check int) "A is held before it exits" 0 (List.length !completed);
  E.Pool.submit pool ~index:1 ~fingerprint:fp { job with E.Spec.seed = 2 };
  step_until "worker B" 1;
  check_record "B" 1 2;
  drain ();
  step_until "worker A" 0;
  check_record "A" 0 1;
  Alcotest.(check bool) "pool idle" true (E.Pool.idle pool)

(* Once a worker's status pipe is at EOF, no descriptor in the select set
   signals its exit.  Worker A is held in that window, then released: a
   step given a 5 s timeout must still reap it within 1 s, with no caller
   fds and with an idle one (the serve daemon's call shape). *)
let test_pool_reaps_after_eof () =
  let job = { (gen_job ~n:30 ()) with E.Spec.seed = 1 } in
  let fp = fingerprint_exn job in
  let reap_held ~extra_fds =
    with_full_stdout @@ fun drain ->
    let pool = held_pool 1 in
    E.Pool.submit pool ~index:0 ~fingerprint:fp job;
    let early = ref [] in
    let until = Unix.gettimeofday () +. 0.3 in
    while Unix.gettimeofday () < until do
      let records, _ = E.Pool.step ~extra_fds ~timeout:0.01 pool in
      early := List.rev_append records !early
    done;
    Alcotest.(check int) "A is held before it exits" 0 (List.length !early);
    drain ();
    let t0 = Support.Util.monotonic_ns () in
    let reaped = ref [] in
    while !reaped = [] do
      let records, _ = E.Pool.step ~extra_fds ~timeout:5.0 pool in
      reaped := records
    done;
    let wall =
      Support.Util.seconds_of_ns (Int64.sub (Support.Util.monotonic_ns ()) t0)
    in
    if wall >= 1.0 then
      Alcotest.failf "A reaped %.3f s after its release, want under 1 s" wall;
    (match !reaped with
    | [ (0, r) ] ->
        Alcotest.(check string) "A ok" "ok"
          (E.Record.status_name r.E.Record.status)
    | _ -> Alcotest.fail "expected A's record alone");
    Alcotest.(check bool) "pool idle" true (E.Pool.idle pool)
  in
  reap_held ~extra_fds:[];
  let idle_r, idle_w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close idle_r;
      Unix.close idle_w)
    (fun () -> reap_held ~extra_fds:[ idle_r ])

let test_cache_reader_racing_writer () =
  (* A reader racing a single writer through the entry's whole life:
     before the first store it misses cleanly; from the first successful
     store on it hits; a re-store of the same fingerprint never makes it
     disappear or tear.  The writer is a forked pool worker, the reader
     is the coordinator between steps. *)
  let dir = temp_dir "hyp_cache_rw" in
  let job = gen_job ~n:30 ~seed:5 () in
  let fp = fingerprint_exn job in
  let record =
    {
      E.Record.fingerprint = fp;
      job;
      status = E.Record.Done;
      metrics = [ ("blob", Obs.Json.Str (String.make 65536 'x')) ];
      observed = None;
      timing = { E.Record.wall_s = 0.0; attempts = 1; worker = 0; threads = 0 };
    }
  in
  let worker (_ : E.Spec.job) =
    match E.Cache.open_ dir with
    | Error e -> { E.Record.p_status = `Failed e; p_metrics = []; p_observed = None }
    | Ok cache ->
        for _ = 1 to 100 do
          ignore (E.Cache.store cache record : (unit, string) result)
        done;
        { E.Record.p_status = `Done; p_metrics = []; p_observed = None }
  in
  let pool = E.Pool.create (quiet_pool 1) ~worker in
  E.Pool.submit pool ~index:0 ~fingerprint:fp job;
  let reader = open_cache dir in
  let seen_hit = ref false in
  let ok = ref true in
  while not (E.Pool.idle pool) do
    ignore (E.Pool.step ~timeout:0.002 pool : (int * E.Record.t) list * Unix.file_descr list);
    for _ = 1 to 10 do
      match E.Cache.find reader fp with
      | None ->
          (* Legal only before the first store has been published. *)
          if !seen_hit then ok := false
      | Some _ -> seen_hit := true
    done
  done;
  Alcotest.(check bool) "once published, never absent" true !ok;
  Alcotest.(check bool) "the entry was published" true !seen_hit;
  let s = E.Cache.stats reader in
  Alcotest.(check int) "no torn reads" 0 s.E.Cache.corrupt

(* ---- batch: cache interplay and determinism ------------------------------ *)

let batch_config ~jobs ~cache_dir =
  {
    E.Batch.pool = (quiet_pool jobs : E.Pool.config);
    cache_dir;
  }

let run_batch ~jobs ~cache_dir plans =
  match E.Batch.run (batch_config ~jobs ~cache_dir) plans with
  | Ok report -> report
  | Error e -> Alcotest.failf "batch failed: %s" e

let test_batch_cache_second_pass () =
  let dir = Some (temp_dir "hyp_batch") in
  let plans =
    [ gen_job ~seed:1 ~n:30 (); gen_job ~seed:2 ~n:30 ();
      { (gen_job ()) with E.Spec.instance = E.Spec.Crash 3 } ]
  in
  let first = run_batch ~jobs:2 ~cache_dir:dir plans in
  Alcotest.(check int) "first pass computes" 0 first.E.Batch.stats.E.Batch.from_cache;
  Alcotest.(check int) "two ok" 2 first.E.Batch.stats.E.Batch.ok;
  Alcotest.(check int) "one crash" 1 first.E.Batch.stats.E.Batch.crashes;
  Alcotest.(check bool) "a failing sibling fails the batch" false
    (E.Batch.all_ok first);
  let second = run_batch ~jobs:2 ~cache_dir:dir plans in
  Alcotest.(check int) "second pass hits for completed jobs" 2
    second.E.Batch.stats.E.Batch.from_cache;
  Alcotest.(check int) "crash is never cached" 1
    second.E.Batch.stats.E.Batch.crashes;
  (* Cached outcomes carry the original deterministic record. *)
  List.iter2
    (fun (a : E.Batch.outcome) (b : E.Batch.outcome) ->
      if b.E.Batch.cached then
        Alcotest.(check string) "cache returns the same record"
          (E.Record.deterministic_string a.E.Batch.record)
          (E.Record.deterministic_string b.E.Batch.record))
    first.E.Batch.outcomes second.E.Batch.outcomes

(* k is bounded by the instance's node count once the worker has built
   the instance, so a generated job asking for more parts than nodes
   fails with the message instead of solving. *)
let test_batch_k_above_n () =
  let report = run_batch ~jobs:1 ~cache_dir:None [ gen_job ~k:31 ~n:30 () ] in
  match report.E.Batch.outcomes with
  | [ { E.Batch.record; _ } ] ->
      Alcotest.(check bool) "Failed with the message" true
        (record.E.Record.status = E.Record.Failed "k must be <= 30 (got 31)")
  | _ -> Alcotest.fail "one outcome expected"

(* The batch/1 reader accepts what the writer produces — fresh, cached,
   crashed and unrunnable results, timed or deterministic — and rejects
   a result that is no record or stats that disagree with the results. *)
let test_batch_check_report () =
  let dir = Some (temp_dir "hyp_check") in
  let plans =
    [
      gen_job ~seed:1 ~n:30 ();
      { (gen_job ()) with E.Spec.instance = E.Spec.Crash 3 };
      { (gen_job ()) with E.Spec.instance = E.Spec.Hmetis_file "/nonexistent.hgr" };
    ]
  in
  ignore (run_batch ~jobs:1 ~cache_dir:dir plans : E.Batch.report);
  let report = run_batch ~jobs:1 ~cache_dir:dir plans in
  List.iter
    (fun deterministic ->
      match
        E.Batch.check_report (E.Batch.report_to_json ~deterministic ~jobs:1 report)
      with
      | Error e -> Alcotest.failf "real report rejected: %s" e
      | Ok outcomes ->
          Alcotest.(check (list bool))
            "cached flags" [ true; false; false ]
            (List.map (fun (o : E.Batch.outcome) -> o.E.Batch.cached) outcomes);
          List.iter2
            (fun (a : E.Batch.outcome) (b : E.Batch.outcome) ->
              Alcotest.(check string) "records decode unchanged"
                (E.Record.deterministic_string a.E.Batch.record)
                (E.Record.deterministic_string b.E.Batch.record))
            report.E.Batch.outcomes outcomes)
    [ false; true ];
  let reject name json =
    match E.Batch.check_report json with
    | Ok _ -> Alcotest.failf "accepted %s" name
    | Error _ -> ()
  in
  let parse s =
    match Obs.Json.parse s with Ok j -> j | Error e -> Alcotest.failf "%s" e
  in
  reject "a result that is no record"
    (parse
       {|{"schema":"hypartition-batch/1","jobs":1,"stats":{"total":1,"from_cache":0},"results":[{"cached":false,"fingerprint":"zz","status":"ok"}]}|});
  let rec set path v json =
    match (path, json) with
    | [], _ -> v
    | key :: rest, Obs.Json.Obj fields ->
        Obs.Json.Obj
          (List.map (fun (k, x) -> if k = key then (k, set rest v x) else (k, x)) fields)
    | _, other -> other
  in
  let real = E.Batch.report_to_json ~jobs:1 report in
  reject "a from_cache mismatch" (set [ "stats"; "from_cache" ] (Obs.Json.Int 0) real);
  reject "a total mismatch" (set [ "stats"; "total" ] (Obs.Json.Int 4) real)

let test_batch_determinism_across_parallelism () =
  (* The headline guarantee: the same manifest at --jobs 1 and --jobs 8
     yields byte-identical records modulo the timing/observed sections. *)
  let manifest =
    {|{
  "schema": "hypartition-manifest/1",
  "defaults": { "eps": 0.2 },
  "instances": [ { "generate": "uniform", "n": 32 } ],
  "configs": [ { "k": 2 }, { "k": 4 } ],
  "seeds": [ 1, 2, 3 ]
}|}
  in
  let plans =
    match E.Manifest.of_string ~known_experiments:[] manifest with
    | Ok jobs -> jobs
    | Error e -> Alcotest.failf "manifest failed: %s" e
  in
  let serial = run_batch ~jobs:1 ~cache_dir:None plans in
  let parallel = run_batch ~jobs:8 ~cache_dir:None plans in
  Alcotest.(check int) "six jobs" 6 (List.length serial.E.Batch.outcomes);
  List.iter2
    (fun (a : E.Batch.outcome) (b : E.Batch.outcome) ->
      Alcotest.(check string) "byte-identical deterministic records"
        (E.Record.deterministic_string a.E.Batch.record)
        (E.Record.deterministic_string b.E.Batch.record))
    serial.E.Batch.outcomes parallel.E.Batch.outcomes;
  Alcotest.(check bool) "all ok serial" true (E.Batch.all_ok serial);
  Alcotest.(check bool) "all ok parallel" true (E.Batch.all_ok parallel)

(* The trace-side determinism guarantee: tracing the same manifest at
   --jobs 1 and --jobs 8 yields the same merged span forest — same
   names, same parent edges, same per-span trace ids — modulo
   timestamps.  Shards absorb in job-index order, so even the merged
   span ids are a function of the plan alone. *)
let test_trace_structure_across_parallelism () =
  let manifest =
    {|{
  "schema": "hypartition-manifest/1",
  "defaults": { "eps": 0.2 },
  "instances": [ { "generate": "uniform", "n": 32 } ],
  "configs": [ { "k": 2 }, { "k": 4 } ],
  "seeds": [ 1, 2 ]
}|}
  in
  let plans =
    match E.Manifest.of_string ~known_experiments:[] manifest with
    | Ok jobs -> jobs
    | Error e -> Alcotest.failf "manifest failed: %s" e
  in
  let traced jobs =
    let path = Filename.temp_file "hyp_trace" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Obs.reset_for_tests ();
    Obs.enable_trace path;
    ignore (run_batch ~jobs ~cache_dir:None plans : E.Batch.report);
    Obs.close ();
    Obs.reset_for_tests ();
    match Obs.Report.load path with
    | Ok data -> Obs.Report.structure data
    | Error msg -> Alcotest.failf "report load (--jobs %d): %s" jobs msg
  in
  let serial = traced 1 in
  let parallel = traced 8 in
  (* engine.job spans carry the job fingerprint as their trace id, and
     the workers' solver spans (multilevel etc.) sit underneath them. *)
  Alcotest.(check bool) "job spans carry trace ids" true
    (contains serial "engine.job[");
  Alcotest.(check bool) "solver spans merged under the jobs" true
    (contains serial "multilevel");
  Alcotest.(check string)
    "span forest identical across worker counts" serial parallel

let suite =
  [
    Alcotest.test_case "FNV-1a golden vectors" `Quick test_fnv1a_golden;
    Alcotest.test_case "fingerprint identity" `Quick test_fingerprint_identity;
    Alcotest.test_case "fingerprint hashes file content" `Quick
      test_fingerprint_file_content;
    Alcotest.test_case "spec JSON roundtrip" `Quick test_spec_roundtrip;
    Alcotest.test_case "record JSON roundtrip" `Quick test_record_roundtrip;
    Alcotest.test_case "cache roundtrip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache rejects defects" `Quick test_cache_rejects_defects;
    Alcotest.test_case "manifest expansion" `Quick test_manifest_expansion;
    Alcotest.test_case "manifest errors" `Quick test_manifest_errors;
    Alcotest.test_case "spec bounds generated n" `Quick
      test_spec_validate_generated_size;
    Alcotest.test_case "paper manifest" `Quick test_paper_manifest;
    Alcotest.test_case "runner execute" `Quick test_runner_execute;
    Alcotest.test_case "runner determinism" `Quick test_runner_determinism;
    Alcotest.test_case "runner: recursive jobs pass the audit" `Quick
      test_runner_recursive_balanced;
    Alcotest.test_case "pool crash isolation" `Quick test_pool_crash_isolation;
    Alcotest.test_case "pool timeout kill" `Quick test_pool_timeout_kill;
    Alcotest.test_case "pool never retries deterministic failures" `Quick
      test_pool_failed_not_retried;
    Alcotest.test_case "pool run drains on SIGINT" `Quick
      test_pool_sigint_drain;
    Alcotest.test_case "cache concurrent same-fingerprint stores" `Quick
      test_cache_concurrent_stores;
    Alcotest.test_case "cache reader racing writer" `Quick
      test_cache_reader_racing_writer;
    Alcotest.test_case "pool descriptor reuse after EOF" `Quick
      test_pool_fd_reuse;
    Alcotest.test_case "pool reaps a worker that exits after EOF" `Quick
      test_pool_reaps_after_eof;
    Alcotest.test_case "batch cache second pass" `Quick
      test_batch_cache_second_pass;
    Alcotest.test_case "batch: k above n fails" `Quick test_batch_k_above_n;
    Alcotest.test_case "batch report check" `Quick test_batch_check_report;
    Alcotest.test_case "trace structure across parallelism" `Quick
      test_trace_structure_across_parallelism;
    Alcotest.test_case "batch determinism across parallelism" `Quick
      test_batch_determinism_across_parallelism;
  ]
