(** The [hypartition-serve/1] wire protocol: length-prefixed JSONL
    frames over a Unix-domain or TCP socket.

    Every frame is [<len>\n<json>\n], where [<len>] is the byte length
    of the JSON line including its newline.  Every frame carries
    [("schema", "hypartition-serve/1")].

    Decoding is total: malformed frames are [Error]s the daemon answers
    with {!Error_frame}, never exceptions.  A field of the wrong type is
    an [Error] naming it, and [null] reads as absent. *)

val schema_version : string
(** ["hypartition-serve/1"]. *)

val max_frame_bytes : int
(** Upper bound on one frame's JSON body; larger announcements poison
    the decoder. *)

type job_state = Queued | Running | Done_state | Unknown

type busy_reason = Queue_full | Client_limit | Draining

val busy_reason_name : busy_reason -> string
(** ["queue_full"], ["client_limit"], ["draining"]. *)

type source = Cache | Solve | Collapsed

val source_name : source -> string
(** Where a result came from: ["cache"] (content-addressed store),
    ["solve"] (a worker ran it), ["collapsed"] (rode on another
    client's identical in-flight request). *)

(** {1 Frames}

    [id] is the {e client-chosen} request id, echoed verbatim — clients
    correlate responses by it, so it must be unique among that client's
    outstanding requests. *)

type request =
  | Submit of { id : int; job : Engine.Spec.job }
  | Status of { id : int }
  | Result of { id : int }  (** re-request a completed result *)
  | Cancel of { id : int }
  | Stats
  | Shutdown

type response =
  | Ack of { id : int; fingerprint : string; position : int }
      (** admitted; [position] is the queue depth in front of it (0 =
          forked immediately or served from cache) *)
  | Busy of { id : int; reason : busy_reason; queue_depth : int }
      (** backpressure: NOT admitted; retry later *)
  | Info of { id : int; state : job_state; position : int option }
  | Result_frame of {
      id : int;
      source : source;
      record : Obs.Json.t;  (** a full hypartition-result/1 document *)
    }
  | Cancelled of { id : int }
  | Stats_frame of Obs.Json.t
  | Error_frame of { id : int option; message : string }
  | Bye  (** shutdown acknowledged; the daemon is draining *)

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, string) result
val response_to_json : response -> Obs.Json.t
val response_of_json : Obs.Json.t -> (response, string) result

(** {1 Framing} *)

val encode : Obs.Json.t -> string
(** One frame: length line + JSON line. *)

type decoder
(** Incremental frame reader.  Feed it raw socket bytes; pull parsed
    JSON documents.  A framing violation (bad length line, oversized or
    unparsable frame) poisons the decoder permanently — byte boundaries
    are lost, so the connection must be dropped. *)

val decoder : unit -> decoder

val feed : decoder -> string -> unit
(** Decode every frame the bytes complete; linear in the bytes fed. *)

val next : decoder -> Obs.Json.t option
(** Oldest complete frame not yet returned, if any. *)

val decoder_error : decoder -> string option
