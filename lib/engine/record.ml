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

let ( let* ) = Result.bind

(* The status, its detail and the metrics: what a payload and a record
   share. *)
let outcome_of_json json =
  let open Obs.Json in
  let* name = field "status" get_str json in
  let* error = optional "error" get_str json in
  let* metrics = optional "metrics" get_obj json in
  let detail = Option.value ~default:"unspecified" error in
  let* status =
    match name with
    | "ok" -> Ok Done
    | "failed" -> Ok (Failed detail)
    | "crashed" -> Ok (Crashed detail)
    | "skipped" -> Ok (Skipped detail)
    | "timeout" ->
        let* budget = optional "budget_s" get_float json in
        Ok (Timed_out (Option.value ~default:0.0 budget))
    | other -> Error (Printf.sprintf "unknown status %S" other)
  in
  Ok (status, Option.value ~default:[] metrics)

let payload_of_json json =
  let* status, p_metrics = outcome_of_json json in
  let* p_status =
    match status with
    | Done -> Ok `Done
    | Failed msg -> Ok (`Failed msg)
    | other ->
        Error (Printf.sprintf "payload status %S" (status_name other))
  in
  let* p_observed = Obs.Json.optional "observed" Option.some json in
  Ok { p_status; p_metrics; p_observed }

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

let timing_of_json json =
  let open Obs.Json in
  let* wall_s = field "wall_s" get_float json in
  let* attempts = field "attempts" get_int json in
  let* worker = field "worker" get_int json in
  let* threads = optional "threads" get_int json in
  Ok { wall_s; attempts; worker; threads = Option.value ~default:0 threads }

let get_digest v =
  Option.bind (Obs.Json.get_str v) (fun f ->
      if Fingerprint.is_digest f then Some f else None)

let of_json json =
  let open Obs.Json in
  let* () = schema ~expected:schema_version json in
  let* fingerprint = field "fingerprint" get_digest json in
  let* job = field "job" Option.some json in
  let* job = Spec.of_json job in
  let* status, metrics = outcome_of_json json in
  let* observed = optional "observed" Option.some json in
  let* timing = optional "timing" Option.some json in
  let* timing =
    Option.fold ~none:(Ok no_timing) ~some:timing_of_json timing
  in
  Ok { fingerprint; job; status; metrics; observed; timing }
