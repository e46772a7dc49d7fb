(* Load-generator engine: concurrent steppable clients, closed- or
   open-loop arrival, and a latency-SLO report.

   Closed loop: each client keeps one request outstanding — throughput
   is set by the server, the classic saturation probe.  Open loop:
   submits fire on a fixed schedule whatever the server is doing, which
   is what exposes queueing and backpressure (closed-loop benchmarks
   famously hide both; the daemon's Busy frames only show up when
   arrivals do not wait for completions).  An open-loop request is timed
   from when it was due, not from when it was sent, so a generator that
   falls behind its schedule does not hide the wait from the latencies.

   The request mix is controlled by [distinct]: requests cycle through
   that many distinct jobs, so distinct >= requests is a cold sweep
   (every solve unique), small distinct is duplicate-heavy (the cache
   and single-flight collapse should absorb most of it), and a repeated
   run against a warm cache dir is the warm mix.

   Everything is steppable ([step] makes one round of progress) so the
   test suite can interleave a daemon and a whole load run in one
   thread; bin/loadgen is a thin flag-parsing wrapper over [run]. *)

type mode = Closed | Open_rate of float

type config = {
  endpoint : Daemon.endpoint;
  clients : int;
  requests : int;  (* total submits across all clients *)
  mode : mode;
  distinct : int;  (* distinct jobs the requests cycle through *)
  n : int;  (* generated-instance size *)
  k : int;
  seed : int;
  shutdown_at_end : bool;  (* finish with a Shutdown frame (CI smoke) *)
}

let default_config =
  {
    endpoint = Daemon.Unix_socket "hypartition.sock";
    clients = 4;
    requests = 32;
    mode = Closed;
    distinct = 4;
    n = 40;
    k = 2;
    seed = 1;
    shutdown_at_end = false;
  }

type cstate = {
  c_client : Client.t;
  mutable c_next_id : int;
  mutable c_outstanding : (int * int64) list;  (* id -> latency start *)
  mutable c_accounted : bool;  (* dead client's outstanding written off *)
}

type t = {
  config : config;
  slo : Slo.t;
  started_ns : int64;
  states : cstate list;
  mutable sent : int;
  mutable next_due_ns : int64;  (* open loop: next scheduled submit *)
  mutable rr : int;  (* open loop: round-robin cursor *)
  mutable shutdown_sent : bool;
}

let job_for t i =
  {
    Engine.Spec.instance =
      Engine.Spec.Generated { kind = Engine.Spec.Uniform; n = t.config.n };
    config = { Engine.Spec.default_config with Engine.Spec.k = t.config.k };
    seed = t.config.seed + (i mod max 1 t.config.distinct);
    timeout_s = Some 60.0;
  }

let create config =
  let rec connect_all acc = function
    | 0 -> Ok (List.rev acc)
    | n -> (
        match Client.connect config.endpoint with
        | Ok c ->
            connect_all
              ({ c_client = c; c_next_id = 1; c_outstanding = [];
                 c_accounted = false }
              :: acc)
              (n - 1)
        | Error e ->
            List.iter (fun s -> Client.close s.c_client) acc;
            Error e)
  in
  match connect_all [] (max 1 config.clients) with
  | Error e -> Error e
  | Ok states ->
      Ok
        {
          config = { config with requests = max 1 config.requests };
          slo = Slo.create ();
          started_ns = Support.Util.monotonic_ns ();
          states;
          sent = 0;
          next_due_ns = Support.Util.monotonic_ns ();
          rr = 0;
          shutdown_sent = false;
        }

(* A request's latency starts at [start_ns]: its due time in the open
   loop, so a stall in the generator is charged to the requests it
   delays, and the send itself in the closed loop, where the two are the
   same. *)
let submit_one t s ~start_ns =
  let id = s.c_next_id in
  s.c_next_id <- id + 1;
  let job = job_for t t.sent in
  t.sent <- t.sent + 1;
  Client.request s.c_client (Protocol.Submit { id; job });
  s.c_outstanding <- (id, start_ns) :: s.c_outstanding

let outcome_of_source = function
  | Protocol.Cache -> Slo.Ok_cache
  | Protocol.Solve -> Slo.Ok_solve
  | Protocol.Collapsed -> Slo.Ok_collapsed

let settle t s id outcome =
  match List.assoc_opt id s.c_outstanding with
  | None -> () (* duplicate result frame or late busy; already settled *)
  | Some start_ns ->
      s.c_outstanding <- List.remove_assoc id s.c_outstanding;
      let latency_s =
        Support.Util.seconds_of_ns
          (Int64.sub (Support.Util.monotonic_ns ()) start_ns)
      in
      Slo.record t.slo outcome ~latency_s

let drain_responses t s =
  let rec go () =
    match Client.recv s.c_client with
    | None -> ()
    | Some resp ->
        (match resp with
        | Protocol.Result_frame { id; source; _ } ->
            settle t s id (outcome_of_source source)
        | Protocol.Busy { id; _ } -> settle t s id Slo.Busy
        | Protocol.Error_frame { id = Some id; _ } -> settle t s id Slo.Error
        | Protocol.Error_frame { id = None; _ } -> ()
        | Protocol.Ack _ | Protocol.Info _ | Protocol.Cancelled _
        | Protocol.Stats_frame _ | Protocol.Bye ->
            ());
        go ()
  in
  go ()

(* A client that died (transport error) can never deliver its
   outstanding results: write them off as errors exactly once. *)
let account_dead t s =
  if Client.closed s.c_client && not s.c_accounted then begin
    s.c_accounted <- true;
    List.iter (fun (_, _) -> Slo.record t.slo Slo.Error ~latency_s:0.0)
      s.c_outstanding;
    s.c_outstanding <- []
  end

let all_settled t =
  t.sent >= t.config.requests
  && List.for_all (fun s -> s.c_outstanding = []) t.states

let step t =
  let now = Support.Util.monotonic_ns () in
  (* Arrivals. *)
  (match t.config.mode with
  | Closed ->
      List.iter
        (fun s ->
          if
            t.sent < t.config.requests
            && s.c_outstanding = []
            && not (Client.closed s.c_client)
          then submit_one t s ~start_ns:(Support.Util.monotonic_ns ()))
        t.states
  | Open_rate rate ->
      let interval_ns = Int64.of_float (1e9 /. Float.max 0.001 rate) in
      let continue = ref true in
      while
        !continue && t.sent < t.config.requests
        && Int64.compare t.next_due_ns now <= 0
      do
        let live =
          Array.of_list
            (List.filter (fun s -> not (Client.closed s.c_client)) t.states)
        in
        if Array.length live = 0 then
          continue := false (* every connection died; stop arriving *)
        else begin
          let s = live.(t.rr mod Array.length live) in
          t.rr <- t.rr + 1;
          submit_one t s ~start_ns:t.next_due_ns;
          t.next_due_ns <- Int64.add t.next_due_ns interval_ns
        end
      done);
  (* Progress and accounting. *)
  List.iter
    (fun s ->
      Client.step ~timeout:0.002 s.c_client;
      drain_responses t s;
      account_dead t s)
    t.states;
  (* Optional goodbye once the measurement is over. *)
  if all_settled t && t.config.shutdown_at_end && not t.shutdown_sent then begin
    t.shutdown_sent <- true;
    match List.find_opt (fun s -> not (Client.closed s.c_client)) t.states with
    | Some s -> Client.request s.c_client Protocol.Shutdown
    | None -> ()
  end

let finished t =
  all_settled t
  && ((not t.config.shutdown_at_end)
     || t.shutdown_sent
        && List.for_all
             (fun s ->
               Client.closed s.c_client
               || not (Client.pending_output s.c_client))
             t.states)

let report t =
  let wall_s =
    Support.Util.seconds_of_ns
      (Int64.sub (Support.Util.monotonic_ns ()) t.started_ns)
  in
  Slo.report t.slo ~wall_s

let close t = List.iter (fun s -> Client.close s.c_client) t.states

let run t =
  while not (finished t) do
    step t
  done;
  (* Give the daemon a beat to read the shutdown frame we flushed. *)
  if t.shutdown_sent then
    List.iter (fun s -> Client.step ~timeout:0.01 s.c_client) t.states;
  let r = report t in
  close t;
  r
