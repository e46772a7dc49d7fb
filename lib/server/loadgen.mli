(** Load-generator engine: concurrent steppable clients, closed- or
    open-loop arrivals, latency-SLO report.

    Closed loop keeps one request outstanding per client (the server
    sets the pace — a saturation probe).  Open loop fires submits on a
    fixed schedule regardless of completions — the mode that actually
    exposes queueing and [Busy] backpressure — and times each request
    from when it was due, so a stall in the generator is charged to the
    requests it delays.  [distinct] shapes the
    mix: [distinct >= requests] is a cold sweep, a small [distinct] is
    duplicate-heavy (cache + single-flight should collapse it), and a
    re-run against a warm cache dir is the warm mix.

    [bin/loadgen] is a thin CLI wrapper over {!create}/{!run}. *)

type mode = Closed | Open_rate of float  (** submits per second *)

type config = {
  endpoint : Daemon.endpoint;
  clients : int;
  requests : int;  (** total submits across all clients *)
  mode : mode;
  distinct : int;  (** distinct jobs the requests cycle through *)
  n : int;  (** generated-instance size *)
  k : int;
  seed : int;
  shutdown_at_end : bool;
      (** send [Shutdown] once all requests settle — CI smoke uses this
          to test graceful drain *)
}

val default_config : config
(** 4 clients, 32 closed-loop requests over 4 distinct jobs, n = 40,
    k = 2, no shutdown. *)

type t

val create : config -> (t, string) result
(** Connect all clients (all-or-nothing). *)

val step : t -> unit
(** One round: fire due arrivals, advance every client, settle
    responses into the SLO accounting. *)

val finished : t -> bool

val run : t -> Obs.Json.t
(** [step] until {!finished}, close the clients, return the
    [hypartition-loadgen/1] report. *)

val report : t -> Obs.Json.t
(** The report so far (also valid mid-run). *)

val close : t -> unit
