(** A steppable serve-protocol client.

    Non-blocking by construction: {!request} only buffers, {!step} makes
    all progress (flush, select, read, decode), {!recv} pops decoded
    responses in arrival order.  This shape lets the test suite
    interleave a daemon and several clients in one thread. *)

type t

val connect : Daemon.endpoint -> (t, string) result

val request : t -> Protocol.request -> unit
(** Buffer one frame for sending; no I/O happens until {!step}. *)

val step : ?timeout:float -> t -> unit
(** Flush buffered output, wait up to [timeout] (default 0: poll) for
    input, decode arrived frames.  No-op when closed. *)

val recv : t -> Protocol.response option
(** Oldest not-yet-returned response, if any. *)

val closed : t -> bool
(** Closed by {!close}, orderly daemon EOF, or a fatal error. *)

val error : t -> string option
(** The first fatal transport/framing error, if one occurred. *)

val close : t -> unit
