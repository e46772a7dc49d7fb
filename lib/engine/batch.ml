(* Cache-aware batch orchestration.

   [run] is the engine's front door: fingerprint every job, satisfy what
   it can from the content-addressed cache, push the remainder through
   the fork pool, store the fresh [Done] records back, and fold the
   whole sweep into one report.  Outcomes come back in plan order
   whatever the completion order was, so callers can zip them against
   their manifest. *)

type config = { pool : Pool.config; cache_dir : string option }

let default_cache_dir = ".hypartition-cache"

let default_config =
  { pool = Pool.default_config; cache_dir = Some default_cache_dir }

type event =
  | Cache_hit of { index : int; record : Record.t }
  | Unrunnable of { index : int; record : Record.t }
  | Pool of Pool.event

type outcome = { record : Record.t; cached : bool }

type stats = {
  total : int;
  from_cache : int;
  ok : int;
  failed : int;
  timeouts : int;
  crashes : int;
  skipped : int;
  retries : int;
  cache : Cache.stats option;
}

type report = { outcomes : outcome list; stats : stats; wall_s : float }

let all_ok report = List.for_all (fun o -> Record.ok o.record) report.outcomes

(* A job whose instance cannot even be fingerprinted (unreadable input
   file) fails before any worker forks; it still gets a stable — if
   never cacheable — fingerprint so the record shape is uniform. *)
let unrunnable_record job msg =
  {
    Record.fingerprint =
      Fingerprint.digest ("unfingerprintable:" ^ Spec.describe job);
    job;
    status = Record.Failed msg;
    metrics = [];
    observed = None;
    timing = Record.no_timing;
  }

let collect_stats ~cache outcomes =
  let count pred = List.length (List.filter pred outcomes) in
  let status_is f o =
    match o.record.Record.status with
    | Record.Done -> f = `Ok
    | Record.Failed _ -> f = `Failed
    | Record.Timed_out _ -> f = `Timeout
    | Record.Crashed _ -> f = `Crashed
    | Record.Skipped _ -> f = `Skipped
  in
  {
    total = List.length outcomes;
    from_cache = count (fun o -> o.cached);
    ok = count (status_is `Ok);
    failed = count (status_is `Failed);
    timeouts = count (status_is `Timeout);
    crashes = count (status_is `Crashed);
    skipped = count (status_is `Skipped);
    retries =
      List.fold_left
        (fun acc o ->
          if o.cached then acc
          else acc + max 0 (o.record.Record.timing.Record.attempts - 1))
        0 outcomes;
    cache = Option.map Cache.stats cache;
  }

let run ?(on_event = fun (_ : event) -> ()) config jobs =
  let opened =
    match config.cache_dir with
    | None -> Ok None
    | Some dir -> Result.map Option.some (Cache.open_ dir)
  in
  match opened with
  | Error e -> Error e
  | Ok cache ->
      Obs.Span.with_
        ~attrs:[ ("jobs", Obs.Int (List.length jobs)) ]
        "engine.batch"
      @@ fun () ->
      (* Stamp the trace with where it came from, while the batch span is
         open — cross-machine comparisons need the header, not a guess. *)
      if Obs.enabled () then begin
        let threads =
          match config.pool.Pool.solver_threads with 0 -> None | t -> Some t
        in
        Obs.emit_provenance
          (Provenance.collect ~jobs:config.pool.Pool.jobs ?threads ())
      end;
      let t0 = Support.Util.monotonic_ns () in
      let n = List.length jobs in
      let results : outcome option array = Array.make (max 1 n) None in
      let to_run = ref [] in
      List.iteri
        (fun index job ->
          match Spec.fingerprint ~schema:Record.schema_version job with
          | Error msg ->
              let record = unrunnable_record job msg in
              on_event (Unrunnable { index; record });
              results.(index) <- Some { record; cached = false }
          | Ok fp -> (
              match Option.bind cache (fun c -> Cache.find c fp) with
              | Some record ->
                  on_event (Cache_hit { index; record });
                  results.(index) <- Some { record; cached = true }
              | None -> to_run := (index, fp, job) :: !to_run))
        jobs;
      let to_run = List.rev !to_run in
      let pool_records =
        if to_run = [] then []
        else
          let threads = config.pool.Pool.solver_threads in
          Pool.run
            ~on_event:(fun e -> on_event (Pool e))
            config.pool
            ~worker:(fun job -> Runner.execute ~threads job)
            to_run
      in
      (* One record per plan, in plan order — the pool guarantees it even
         under SIGINT draining (queued jobs come back Skipped). *)
      List.iter2
        (fun (index, _, _) record ->
          (match cache with
          | Some c when Record.cacheable record -> (
              match Cache.store c record with Ok () -> () | Error _ -> ())
          | _ -> ());
          results.(index) <- Some { record; cached = false })
        to_run pool_records;
      let outcomes =
        List.init n (fun i ->
            match results.(i) with Some o -> o | None -> assert false)
      in
      let wall_s = Support.Util.seconds_of_ns
          (Int64.sub (Support.Util.monotonic_ns ()) t0)
      in
      Ok { outcomes; stats = collect_stats ~cache outcomes; wall_s }

let stats_to_json s =
  let open Obs.Json in
  Obj
    ([
       ("total", Int s.total);
       ("from_cache", Int s.from_cache);
       ("ok", Int s.ok);
       ("failed", Int s.failed);
       ("timeouts", Int s.timeouts);
       ("crashes", Int s.crashes);
       ("skipped", Int s.skipped);
       ("retries", Int s.retries);
     ]
    @ match s.cache with
      | None -> []
      | Some cs -> [ ("cache", Cache.stats_to_json cs) ])

let schema_version = "hypartition-batch/1"

let report_to_json ?(deterministic = false) ~jobs report =
  let open Obs.Json in
  Obj
    ([ ("schema", Str schema_version) ]
    @ (if deterministic then [] else [ ("wall_s", Float report.wall_s) ])
    @ [
        ("jobs", Int jobs);
        ("stats", stats_to_json report.stats);
        ( "results",
          Arr
            (List.map
               (fun o ->
                 match Record.to_json ~deterministic o.record with
                 | Obj fields -> Obj (("cached", Bool o.cached) :: fields)
                 | other -> other)
               report.outcomes) );
      ])

(* The batch/1 reader, next to its writer: every result decodes as a
   record once its ["cached"] flag is dropped, and the stats agree with
   the results. *)
let check_report json =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  let* () = schema ~expected:schema_version json in
  let* stats = field "stats" get_obj json in
  let* total = field "total" get_int (Obj stats) in
  let* from_cache = field "from_cache" get_int (Obj stats) in
  let* results = field "results" (get_arr get_obj) json in
  let* () =
    if List.length results = total then Ok ()
    else
      Error
        (Printf.sprintf "stats.total = %d but %d results" total
           (List.length results))
  in
  let outcome i fields =
    Result.map_error (Printf.sprintf "result %d: %s" i)
      (let* cached = field "cached" get_bool (Obj fields) in
       let* record = Record.of_json (Obj (List.remove_assoc "cached" fields)) in
       Ok { record; cached })
  in
  let rec decode i = function
    | [] -> Ok []
    | r :: rest ->
        let* o = outcome i r in
        let* os = decode (i + 1) rest in
        Ok (o :: os)
  in
  let* outcomes = decode 0 results in
  let cached = List.length (List.filter (fun o -> o.cached) outcomes) in
  if cached = from_cache then Ok outcomes
  else
    Error
      (Printf.sprintf "stats.from_cache = %d but %d results marked cached"
         from_cache cached)
