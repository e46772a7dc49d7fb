(* The hypartition-serve/1 wire protocol.

   Length-prefixed JSONL: every frame is `<len>\n<json>\n`, where <len>
   is the byte length of the JSON line including its trailing newline.
   The prefix lets a reader size its buffer before parsing and reject
   oversized frames without reading them.  Every frame carries the
   schema tag so a frame stream is self-describing from its first line.

   One request type per client verb (submit/status/result/cancel/stats/
   shutdown), one response type per server outcome; decoding is total —
   a malformed frame is an [Error], never an exception, and the daemon
   answers it with an [Error_frame] instead of dropping the link. *)

let schema_version = "hypartition-serve/1"

(* Frame size cap: a submit carries a job spec (small) and a result
   carries one record (metrics + an observability snapshot, generously
   under a megabyte); anything larger is a framing bug or an attack. *)
let max_frame_bytes = 4 * 1024 * 1024

type job_state = Queued | Running | Done_state | Unknown

let job_state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done_state -> "done"
  | Unknown -> "unknown"

let job_state_of_name = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done_state
  | "unknown" -> Some Unknown
  | _ -> None

type busy_reason = Queue_full | Client_limit | Draining

let busy_reason_name = function
  | Queue_full -> "queue_full"
  | Client_limit -> "client_limit"
  | Draining -> "draining"

let busy_reason_of_name = function
  | "queue_full" -> Some Queue_full
  | "client_limit" -> Some Client_limit
  | "draining" -> Some Draining
  | _ -> None

type source = Cache | Solve | Collapsed

let source_name = function
  | Cache -> "cache"
  | Solve -> "solve"
  | Collapsed -> "collapsed"

let source_of_name = function
  | "cache" -> Some Cache
  | "solve" -> Some Solve
  | "collapsed" -> Some Collapsed
  | _ -> None

type request =
  | Submit of { id : int; job : Engine.Spec.job }
  | Status of { id : int }
  | Result of { id : int }
  | Cancel of { id : int }
  | Stats
  | Shutdown

type response =
  | Ack of { id : int; fingerprint : string; position : int }
      (** admitted; [position] is the queue depth in front of it (0 =
          forked immediately or served from cache) *)
  | Busy of { id : int; reason : busy_reason; queue_depth : int }
      (** backpressure: NOT admitted, try again later *)
  | Info of { id : int; state : job_state; position : int option }
  | Result_frame of {
      id : int;
      source : source;
      record : Obs.Json.t;  (** a full hypartition-result/1 document *)
    }
  | Cancelled of { id : int }
  | Stats_frame of Obs.Json.t  (** daemon statistics, schema-free body *)
  | Error_frame of { id : int option; message : string }
  | Bye

(* ---- encoding ------------------------------------------------------------ *)

let obj typ fields =
  Obs.Json.Obj
    (("schema", Obs.Json.Str schema_version)
    :: ("type", Obs.Json.Str typ)
    :: fields)

let request_to_json = function
  | Submit { id; job } ->
      obj "submit"
        [ ("id", Obs.Json.Int id); ("job", Engine.Spec.to_json job) ]
  | Status { id } -> obj "status" [ ("id", Obs.Json.Int id) ]
  | Result { id } -> obj "result" [ ("id", Obs.Json.Int id) ]
  | Cancel { id } -> obj "cancel" [ ("id", Obs.Json.Int id) ]
  | Stats -> obj "stats" []
  | Shutdown -> obj "shutdown" []

let response_to_json = function
  | Ack { id; fingerprint; position } ->
      obj "ack"
        [
          ("id", Obs.Json.Int id);
          ("fingerprint", Obs.Json.Str fingerprint);
          ("position", Obs.Json.Int position);
        ]
  | Busy { id; reason; queue_depth } ->
      obj "busy"
        [
          ("id", Obs.Json.Int id);
          ("reason", Obs.Json.Str (busy_reason_name reason));
          ("queue_depth", Obs.Json.Int queue_depth);
        ]
  | Info { id; state; position } ->
      obj "info"
        (List.concat
           [
             [
               ("id", Obs.Json.Int id);
               ("state", Obs.Json.Str (job_state_name state));
             ];
             (match position with
             | Some p -> [ ("position", Obs.Json.Int p) ]
             | None -> []);
           ])
  | Result_frame { id; source; record } ->
      obj "result"
        [
          ("id", Obs.Json.Int id);
          ("source", Obs.Json.Str (source_name source));
          ("record", record);
        ]
  | Cancelled { id } -> obj "cancelled" [ ("id", Obs.Json.Int id) ]
  | Stats_frame body -> obj "stats" [ ("stats", body) ]
  | Error_frame { id; message } ->
      obj "error"
        (List.concat
           [
             (match id with Some i -> [ ("id", Obs.Json.Int i) ] | None -> []);
             [ ("message", Obs.Json.Str message) ];
           ])
  | Bye -> obj "bye" []

(* ---- decoding ------------------------------------------------------------ *)

let field name get j = Option.bind (Obs.Json.member name j) get
let int_field name j = field name Obs.Json.get_int j
let str_field name j = field name Obs.Json.get_str j

let check_schema j =
  match str_field "schema" j with
  | Some s when String.equal s schema_version -> Ok ()
  | Some s -> Error (Printf.sprintf "unsupported frame schema %s" s)
  | None -> Error "frame has no schema tag"

let with_id j k =
  match int_field "id" j with
  | Some id -> k id
  | None -> Error "frame has no id"

let request_of_json j =
  match check_schema j with
  | Error _ as e -> e
  | Ok () -> (
      match str_field "type" j with
      | None -> Error "frame has no type"
      | Some "submit" ->
          with_id j (fun id ->
              match Obs.Json.member "job" j with
              | None -> Error "submit frame has no job"
              | Some job_json -> (
                  match Engine.Spec.of_json job_json with
                  | Ok job -> Ok (Submit { id; job })
                  | Error e -> Error (Printf.sprintf "submit job: %s" e)))
      | Some "status" -> with_id j (fun id -> Ok (Status { id }))
      | Some "result" -> with_id j (fun id -> Ok (Result { id }))
      | Some "cancel" -> with_id j (fun id -> Ok (Cancel { id }))
      | Some "stats" -> Ok Stats
      | Some "shutdown" -> Ok Shutdown
      | Some t -> Error (Printf.sprintf "unknown request type %s" t))

let response_of_json j =
  match check_schema j with
  | Error _ as e -> e
  | Ok () -> (
      match str_field "type" j with
      | None -> Error "frame has no type"
      | Some "ack" ->
          with_id j (fun id ->
              match (str_field "fingerprint" j, int_field "position" j) with
              | Some fingerprint, Some position ->
                  Ok (Ack { id; fingerprint; position })
              | _ -> Error "ack frame missing fingerprint/position")
      | Some "busy" ->
          with_id j (fun id ->
              match
                ( Option.bind (str_field "reason" j) busy_reason_of_name,
                  int_field "queue_depth" j )
              with
              | Some reason, Some queue_depth ->
                  Ok (Busy { id; reason; queue_depth })
              | _ -> Error "busy frame missing reason/queue_depth")
      | Some "info" ->
          with_id j (fun id ->
              match Option.bind (str_field "state" j) job_state_of_name with
              | Some state ->
                  Ok (Info { id; state; position = int_field "position" j })
              | None -> Error "info frame has a bad state")
      | Some "result" ->
          with_id j (fun id ->
              match
                ( Option.bind (str_field "source" j) source_of_name,
                  Obs.Json.member "record" j )
              with
              | Some source, Some record ->
                  Ok (Result_frame { id; source; record })
              | _ -> Error "result frame missing source/record")
      | Some "cancelled" -> with_id j (fun id -> Ok (Cancelled { id }))
      | Some "stats" -> (
          match Obs.Json.member "stats" j with
          | Some body -> Ok (Stats_frame body)
          | None -> Error "stats frame has no body")
      | Some "error" ->
          (match str_field "message" j with
          | Some message -> Ok (Error_frame { id = int_field "id" j; message })
          | None -> Error "error frame has no message")
      | Some "bye" -> Ok Bye
      | Some t -> Error (Printf.sprintf "unknown response type %s" t))

(* ---- framing ------------------------------------------------------------- *)

let encode json =
  let line = Obs.Json.to_string json ^ "\n" in
  Printf.sprintf "%d\n%s" (String.length line) line

(* Incremental frame reader: feed it raw socket bytes, pull out parsed
   JSON documents.  A protocol violation (bad length line, oversized
   frame, unparsable JSON) poisons the decoder — the connection is not
   recoverable past a framing error, because byte boundaries are lost. *)
type decoder = {
  d_buf : Buffer.t;
  mutable d_want : int option;  (* the announced body length, once read *)
  mutable d_ready : Obs.Json.t list;  (* decoded, oldest first (reversed) *)
  mutable d_error : string option;
}

let decoder () =
  { d_buf = Buffer.create 4096; d_want = None; d_ready = []; d_error = None }

let decoder_error d = d.d_error

(* Consume [n] bytes off the front of the buffer. *)
let consume d n =
  let all = Buffer.contents d.d_buf in
  Buffer.clear d.d_buf;
  Buffer.add_substring d.d_buf all n (String.length all - n)

let rec pump d =
  if d.d_error = None then
    match d.d_want with
    | None -> (
        let all = Buffer.contents d.d_buf in
        match String.index_opt all '\n' with
        | None ->
            if String.length all > 20 then
              d.d_error <- Some "length line too long"
        | Some nl -> (
            let line = String.sub all 0 nl in
            match int_of_string_opt (String.trim line) with
            | Some n when n > 0 && n <= max_frame_bytes ->
                consume d (nl + 1);
                d.d_want <- Some n;
                pump d
            | Some n ->
                d.d_error <-
                  Some (Printf.sprintf "frame length %d out of bounds" n)
            | None ->
                d.d_error <-
                  Some (Printf.sprintf "bad frame length line %S" line)))
    | Some want ->
        if Buffer.length d.d_buf >= want then begin
          let body = Buffer.sub d.d_buf 0 want in
          consume d want;
          d.d_want <- None;
          (match Obs.Json.parse (String.trim body) with
          | Ok json -> d.d_ready <- json :: d.d_ready
          | Error e -> d.d_error <- Some (Printf.sprintf "frame body: %s" e));
          pump d
        end

let feed d bytes =
  if d.d_error = None then begin
    Buffer.add_string d.d_buf bytes;
    pump d
  end

let next d =
  match List.rev d.d_ready with
  | [] -> None
  | oldest :: rest ->
      d.d_ready <- List.rev rest;
      Some oldest
