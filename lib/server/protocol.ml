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

let job_states =
  [
    ("queued", Queued); ("running", Running); ("done", Done_state);
    ("unknown", Unknown);
  ]

type busy_reason = Queue_full | Client_limit | Draining

let busy_reasons =
  [
    ("queue_full", Queue_full); ("client_limit", Client_limit);
    ("draining", Draining);
  ]

type source = Cache | Solve | Collapsed

let sources = [ ("cache", Cache); ("solve", Solve); ("collapsed", Collapsed) ]

let name_of names v = fst (List.find (fun (_, x) -> x = v) names)
let busy_reason_name = name_of busy_reasons
let source_name = name_of sources

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
               ("state", Obs.Json.Str (name_of job_states state));
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

let ( let* ) = Result.bind

let request_of_json j =
  let open Obs.Json in
  let* () = schema ~expected:schema_version j in
  let* typ = field "type" get_str j in
  let id = field "id" get_int j in
  match typ with
  | "submit" ->
      let* id = id in
      let* job = field "job" Option.some j in
      let* job =
        Result.map_error (( ^ ) "submit job: ") (Engine.Spec.of_json job)
      in
      Ok (Submit { id; job })
  | "status" -> Result.map (fun id -> Status { id }) id
  | "result" -> Result.map (fun id -> Result { id }) id
  | "cancel" -> Result.map (fun id -> Cancel { id }) id
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | t -> Error (Printf.sprintf "unknown request type %s" t)

let response_of_json j =
  let open Obs.Json in
  let* () = schema ~expected:schema_version j in
  let* typ = field "type" get_str j in
  let id = field "id" get_int j in
  match typ with
  | "ack" ->
      let* id = id in
      let* fingerprint = field "fingerprint" get_str j in
      let* position = field "position" get_int j in
      Ok (Ack { id; fingerprint; position })
  | "busy" ->
      let* id = id in
      let* reason = field "reason" (get_enum busy_reasons) j in
      let* queue_depth = field "queue_depth" get_int j in
      Ok (Busy { id; reason; queue_depth })
  | "info" ->
      let* id = id in
      let* state = field "state" (get_enum job_states) j in
      let* position = optional "position" get_int j in
      Ok (Info { id; state; position })
  | "result" ->
      let* id = id in
      let* source = field "source" (get_enum sources) j in
      let* record = field "record" Option.some j in
      Ok (Result_frame { id; source; record })
  | "cancelled" -> Result.map (fun id -> Cancelled { id }) id
  | "stats" ->
      Result.map (fun body -> Stats_frame body) (field "stats" Option.some j)
  | "error" ->
      let* id = optional "id" get_int j in
      let* message = field "message" get_str j in
      Ok (Error_frame { id; message })
  | "bye" -> Ok Bye
  | t -> Error (Printf.sprintf "unknown response type %s" t)

(* ---- framing ------------------------------------------------------------- *)

let encode json =
  let line = Obs.Json.to_string json ^ "\n" in
  Printf.sprintf "%d\n%s" (String.length line) line

(* Incremental frame reader: feed it raw socket bytes, pull out parsed
   JSON documents.  A protocol violation (bad length line, oversized
   frame, unparsable JSON) poisons the decoder — the connection is not
   recoverable past a framing error, because byte boundaries are lost.

   Decoding is linear in the bytes fed: frames are read at an offset
   into the buffer, which drops its consumed prefix only once that
   prefix is more than half of it, and decoded documents wait in a
   FIFO. *)
type decoder = {
  d_buf : Buffer.t;
  mutable d_pos : int;  (* bytes of [d_buf] already consumed *)
  mutable d_want : int option;  (* the announced body length, once read *)
  d_ready : Obs.Json.t Queue.t;  (* decoded, oldest first *)
  mutable d_error : string option;
}

let decoder () =
  {
    d_buf = Buffer.create 4096;
    d_pos = 0;
    d_want = None;
    d_ready = Queue.create ();
    d_error = None;
  }

let decoder_error d = d.d_error

(* The offset of the first newline at or after [d_pos], if any. *)
let newline d =
  let len = Buffer.length d.d_buf in
  let rec go i =
    if i >= len then None
    else if Buffer.nth d.d_buf i = '\n' then Some i
    else go (i + 1)
  in
  go d.d_pos

let rec pump d =
  if d.d_error = None then
    let avail = Buffer.length d.d_buf - d.d_pos in
    match d.d_want with
    | None -> (
        match newline d with
        | None ->
            if avail > 20 then d.d_error <- Some "length line too long"
        | Some nl -> (
            let line = Buffer.sub d.d_buf d.d_pos (nl - d.d_pos) in
            match int_of_string_opt (String.trim line) with
            | Some n when n > 0 && n <= max_frame_bytes ->
                d.d_pos <- nl + 1;
                d.d_want <- Some n;
                pump d
            | Some n ->
                d.d_error <-
                  Some (Printf.sprintf "frame length %d out of bounds" n)
            | None ->
                d.d_error <-
                  Some (Printf.sprintf "bad frame length line %S" line)))
    | Some want ->
        if avail >= want then begin
          let body = Buffer.sub d.d_buf d.d_pos want in
          d.d_pos <- d.d_pos + want;
          d.d_want <- None;
          (match Obs.Json.parse (String.trim body) with
          | Ok json -> Queue.push json d.d_ready
          | Error e -> d.d_error <- Some (Printf.sprintf "frame body: %s" e));
          pump d
        end

let feed d bytes =
  if d.d_error = None then begin
    let len = Buffer.length d.d_buf in
    if d.d_pos > len / 2 then begin
      let rest = Buffer.sub d.d_buf d.d_pos (len - d.d_pos) in
      Buffer.clear d.d_buf;
      Buffer.add_string d.d_buf rest;
      d.d_pos <- 0
    end;
    Buffer.add_string d.d_buf bytes;
    pump d
  end

let next d = Queue.take_opt d.d_ready
