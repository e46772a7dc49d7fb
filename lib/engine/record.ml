(* Versioned result records (schema hypartition-result/1).

   A record is the engine's unit of truth: what was asked (the job plan
   and its fingerprint), what happened (status + deterministic metrics),
   and how it went (timing, attempts, worker slot, plus the worker's
   observability snapshot).  The deterministic part of a record —
   everything except the "timing" and "observed" sections — depends only
   on the job plan, never on scheduling: running the same plan at
   --jobs 1 and --jobs 8 yields byte-identical deterministic renderings
   (asserted by test/test_engine.ml).

   Only [Done] records enter the cache; failures and timeouts are
   re-attempted on the next sweep. *)

let schema_version = "hypartition-result/1"

type status =
  | Done
  | Failed of string
  | Timed_out of float
  | Crashed of string
  | Skipped of string

type timing = { wall_s : float; attempts : int; worker : int; threads : int }

let no_timing = { wall_s = 0.0; attempts = 0; worker = -1; threads = 0 }

type t = {
  fingerprint : string;
  job : Spec.job;
  status : status;
  metrics : (string * Obs.Json.t) list;
  observed : Obs.Json.t option;
  timing : timing;
}

let ok t = match t.status with Done -> true | _ -> false
let cacheable = ok

let status_name = function
  | Done -> "ok"
  | Failed _ -> "failed"
  | Timed_out _ -> "timeout"
  | Crashed _ -> "crashed"
  | Skipped _ -> "skipped"

let status_detail = function
  | Done -> None
  | Failed msg | Crashed msg | Skipped msg -> Some msg
  | Timed_out budget -> Some (Printf.sprintf "exceeded %gs budget" budget)

(* ---- worker payload -----------------------------------------------------

   What a worker process reports back over its status pipe: the
   deterministic outcome plus the observability snapshot of the run.  The
   coordinator wraps this into a full record (adding fingerprint, job,
   timing); a worker that dies before completing the protocol is
   classified from its exit status instead. *)

type payload = {
  p_status : [ `Done | `Failed of string ];
  p_metrics : (string * Obs.Json.t) list;
  p_observed : Obs.Json.t option;
}

let payload_to_json p =
  let open Obs.Json in
  Obj
    ([
       ( "status",
         Str (match p.p_status with `Done -> "ok" | `Failed _ -> "failed") );
     ]
    @ (match p.p_status with
      | `Failed msg -> [ ("error", Str msg) ]
      | `Done -> [])
    @ [ ("metrics", Obj p.p_metrics) ]
    @ match p.p_observed with None -> [] | Some o -> [ ("observed", o) ])

let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v

let metrics_of_json json =
  match Obs.Json.member "metrics" json with
  | Some (Obs.Json.Obj fields) -> Ok fields
  | Some _ -> Error "field \"metrics\" is not an object"
  | None -> Ok []

let payload_of_json json =
  let* status =
    match Option.bind (Obs.Json.member "status" json) Obs.Json.get_str with
    | Some "ok" -> Ok `Done
    | Some "failed" ->
        let msg =
          match Option.bind (Obs.Json.member "error" json) Obs.Json.get_str with
          | Some m -> m
          | None -> "unspecified failure"
        in
        Ok (`Failed msg)
    | Some other -> Error (Printf.sprintf "unknown payload status %S" other)
    | None -> Error "payload without status"
  in
  let* metrics = metrics_of_json json in
  Ok
    {
      p_status = status;
      p_metrics = metrics;
      p_observed = Obs.Json.member "observed" json;
    }

(* ---- record codec ------------------------------------------------------- *)

let to_json ?(deterministic = false) t =
  let open Obs.Json in
  let status_fields =
    [ ("status", Str (status_name t.status)) ]
    @ (match t.status with
      | Done -> []
      | Failed msg | Crashed msg | Skipped msg -> [ ("error", Str msg) ]
      | Timed_out budget -> [ ("budget_s", Float budget) ])
  in
  Obj
    ([
       ("schema", Str schema_version);
       ("fingerprint", Str t.fingerprint);
       ("job", Spec.to_json t.job);
     ]
    @ status_fields
    @ [ ("metrics", Obj t.metrics) ]
    @ (if deterministic then []
       else
         (match t.observed with
         | None -> []
         | Some o -> [ ("observed", o) ])
         @ [
             ( "timing",
               Obj
                 ([
                    ("wall_s", Float t.timing.wall_s);
                    ("attempts", Int t.timing.attempts);
                    ("worker", Int t.timing.worker);
                  ]
                 @
                 (* Solver domains, when any were configured; omitted
                    at 0 so existing renderings are byte-stable. *)
                 if t.timing.threads > 0 then
                   [ ("threads", Int t.timing.threads) ]
                 else []) );
           ]))

let deterministic_string t = Obs.Json.to_string (to_json ~deterministic:true t)

let of_json json =
  let* schema =
    match Option.bind (Obs.Json.member "schema" json) Obs.Json.get_str with
    | Some s -> Ok s
    | None -> Error "record without schema tag"
  in
  let* () =
    if String.equal schema schema_version then Ok ()
    else
      Error
        (Printf.sprintf "unsupported record schema %S (expected %S)" schema
           schema_version)
  in
  let* fingerprint =
    match Option.bind (Obs.Json.member "fingerprint" json) Obs.Json.get_str with
    | Some f when Fingerprint.is_digest f -> Ok f
    | Some f -> Error (Printf.sprintf "malformed fingerprint %S" f)
    | None -> Error "record without fingerprint"
  in
  let* job =
    match Obs.Json.member "job" json with
    | Some j -> Spec.of_json j
    | None -> Error "record without job"
  in
  let detail =
    match Option.bind (Obs.Json.member "error" json) Obs.Json.get_str with
    | Some m -> m
    | None -> "unspecified"
  in
  let* status =
    match Option.bind (Obs.Json.member "status" json) Obs.Json.get_str with
    | Some "ok" -> Ok Done
    | Some "failed" -> Ok (Failed detail)
    | Some "crashed" -> Ok (Crashed detail)
    | Some "skipped" -> Ok (Skipped detail)
    | Some "timeout" ->
        let budget =
          match
            Option.bind (Obs.Json.member "budget_s" json) Obs.Json.get_float
          with
          | Some b -> b
          | None -> 0.0
        in
        Ok (Timed_out budget)
    | Some other -> Error (Printf.sprintf "unknown record status %S" other)
    | None -> Error "record without status"
  in
  let* metrics = metrics_of_json json in
  let timing =
    match Obs.Json.member "timing" json with
    | Some timing_json ->
        let num name fallback =
          match
            Option.bind (Obs.Json.member name timing_json) Obs.Json.get_float
          with
          | Some f -> f
          | None -> fallback
        in
        {
          wall_s = num "wall_s" 0.0;
          attempts = int_of_float (num "attempts" 0.0);
          worker = int_of_float (num "worker" (-1.0));
          threads = int_of_float (num "threads" 0.0);
        }
    | None -> no_timing
  in
  Ok
    {
      fingerprint;
      job;
      status;
      metrics;
      observed = Obs.Json.member "observed" json;
      timing;
    }
