(* The hypartition serve daemon: the batch engine as a long-lived
   service.

   One single-threaded loop multiplexes everything through the pool's
   select: the listening socket, every client connection, and the worker
   status pipes.  Requests pass the admission controller (bounded queue,
   per-client cap — rejections are explicit Busy frames), collapse onto
   identical in-flight requests (Jobs), are served from the
   content-addressed cache when a prior solve matches, and otherwise
   fork workers through the incremental Engine.Pool.  Parsed file-backed
   instances stay hot in an LRU the forked workers reach through
   copy-on-write.

   Every request gets a trace/2 span tree — request → queue-wait →
   solve → respond — emitted retroactively (Obs.Manual) at respond
   time, stamped with the job fingerprint as its trace id; the worker's
   own shard is absorbed under the request's solve span.  PR 7's report
   analytics therefore work on server traces unchanged.

   Graceful drain (SIGINT or a Shutdown frame): stop accepting, reject
   new submits with Busy{draining}, turn queued jobs into Skipped
   records, let running workers finish, flush every connection, absorb
   all remaining shards, exit.  Zero orphan processes is a tested
   property, not an aspiration. *)

type endpoint = Unix_socket of string | Tcp of string * int

type config = {
  endpoint : endpoint;
  pool : Engine.Pool.config;
  cache_dir : string option;
  admission : Admission.config;
  lru_capacity : int;
}

let default_config =
  {
    endpoint = Unix_socket "hypartition.sock";
    pool = { Engine.Pool.default_config with jobs = 2; silence_worker_stdout = true };
    cache_dir = None;
    admission = Admission.default_config;
    lru_capacity = 16;
  }

type conn = {
  cn_id : int;
  cn_fd : Unix.file_descr;
  cn_dec : Protocol.decoder;
  cn_out : Buffer.t;
  mutable cn_closing : bool;  (* close once the out buffer drains *)
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  pool : Engine.Pool.t;
  cache : Engine.Cache.t option;
  admission : Admission.t;
  jobs : Jobs.t;
  instances : Instances.t;
  started_ns : int64;
  mutable conns : conn list;
  mutable next_conn_id : int;
  mutable accepting : bool;
  mutable draining : bool;
  mutable drain_requested : bool;  (* set from the SIGINT handler *)
  mutable n_submitted : int;
  mutable n_completed : int;
  mutable n_busy : int;
  mutable n_cancelled : int;
  mutable n_cache_hits : int;
}

let c_requests = Obs.Counter.make "server.request.submitted"
let c_responses = Obs.Counter.make "server.request.completed"
let c_cache_hit = Obs.Counter.make "server.request.cache_hit"
let c_busy = Obs.Counter.make "server.request.busy"
let g_queue_depth = Obs.Gauge.make "server.queue.depth"
let h_request_wall = Obs.Histogram.make "server.request.wall_s"

let now_ns = Support.Util.monotonic_ns

(* ---- socket plumbing ----------------------------------------------------- *)

let open_listener = function
  | Unix_socket path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd
  | Tcp (host, port) ->
      let addr =
        if String.equal host "" then Unix.inet_addr_loopback
        else Unix.inet_addr_of_string host
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd

let create config =
  match open_listener config.endpoint with
  | exception Unix.Unix_error (e, fn, arg) ->
      Error
        (Printf.sprintf "Daemon.create: %s %s: %s" fn arg (Unix.error_message e))
  | exception Sys_error msg -> Error (Printf.sprintf "Daemon.create: %s" msg)
  | listen_fd -> (
      let cache =
        Option.map
          (fun dir ->
            match Engine.Cache.open_ dir with
            | Ok c -> Ok c
            | Error e -> Error e)
          config.cache_dir
      in
      match cache with
      | Some (Error e) ->
          Unix.close listen_fd;
          Error (Printf.sprintf "Daemon.create: %s" e)
      | None | Some (Ok _) ->
          let cache =
            match cache with Some (Ok c) -> Some c | _ -> None
          in
          let instances = Instances.create ~capacity:config.lru_capacity in
          (* The worker closure runs in the forked child; the LRU's
             parsed instances are visible there through copy-on-write.
             A multilevel job's solver domains are spawned and joined
             inside the child's solve — they never exist when the pool
             forks, so the fork/domain hazard cannot arise. *)
          let threads = config.pool.Engine.Pool.solver_threads in
          let worker job =
            Engine.Runner.execute ~lookup:(Instances.lookup instances) ~threads
              job
          in
          let pool =
            Engine.Pool.create
              { config.pool with Engine.Pool.handle_sigint = false }
              ~worker
          in
          Ok
            {
              config;
              listen_fd;
              pool;
              cache;
              admission = Admission.create config.admission;
              jobs = Jobs.create ();
              instances;
              started_ns = now_ns ();
              conns = [];
              next_conn_id = 1;
              accepting = true;
              draining = false;
              drain_requested = false;
              n_submitted = 0;
              n_completed = 0;
              n_busy = 0;
              n_cancelled = 0;
              n_cache_hits = 0;
            })

let endpoint_name = function
  | Unix_socket path -> Printf.sprintf "unix:%s" path
  | Tcp (host, port) ->
      Printf.sprintf "tcp:%s:%d" (if host = "" then "127.0.0.1" else host) port

(* ---- frame output -------------------------------------------------------- *)

let send conn response =
  Buffer.add_string conn.cn_out
    (Protocol.encode (Protocol.response_to_json response))

let find_conn t id = List.find_opt (fun c -> c.cn_id = id) t.conns

(* ---- request tracing ----------------------------------------------------- *)

(* Emit one request's finished span tree.  Parents go first — manual
   span ids are allocated at emission.  [shard] is the worker's trace
   shard for solve-source requests; it hangs under the solve span. *)
let emit_request_spans ~fp ~client ~id ~source ~status ~submit_ns ~started_ns
    ~done_ns ~respond_start ~respond_end ~shard =
  let attrs =
    [
      ("client", Obs.Int client);
      ("id", Obs.Int id);
      ("source", Obs.Str (Protocol.source_name source));
      ("status", Obs.Str status);
    ]
  in
  let dur a b = Int64.sub b a in
  let root =
    Obs.Manual.span ~trace:fp ~attrs ~name:"server.request"
      ~start_ns:submit_ns ~dur_ns:(dur submit_ns respond_end) ()
  in
  (match root with
  | None -> (
      (* Collection disabled: still delete a consumed shard. *)
      match shard with
      | Some path -> ( try Sys.remove path with Sys_error _ -> ())
      | None -> ())
  | Some root ->
      let queue_end = Option.value started_ns ~default:done_ns in
      ignore
        (Obs.Manual.span ~trace:fp ~parent:root ~name:"queue_wait"
           ~start_ns:submit_ns ~dur_ns:(dur submit_ns queue_end) ()
          : Obs.Manual.handle option);
      (match started_ns with
      | Some started ->
          let solve =
            Obs.Manual.span ~trace:fp ~parent:root ~name:"solve"
              ~start_ns:started ~dur_ns:(dur started done_ns) ()
          in
          (match (shard, solve) with
          | Some path, Some solve ->
              ignore (Obs.absorb_shard ~parent:solve path : int);
              (try Sys.remove path with Sys_error _ -> ())
          | Some path, None -> (
              try Sys.remove path with Sys_error _ -> ())
          | None, _ -> ())
      | None -> (
          match shard with
          | Some path -> ( try Sys.remove path with Sys_error _ -> ())
          | None -> ()));
      ignore
        (Obs.Manual.span ~trace:fp ~parent:root ~name:"respond"
           ~start_ns:respond_start ~dur_ns:(dur respond_start respond_end) ()
          : Obs.Manual.handle option));
  Obs.Histogram.observe h_request_wall
    (Support.Util.seconds_of_ns (dur submit_ns respond_end))

(* ---- responding ---------------------------------------------------------- *)

let respond_result t ~(waiter : Jobs.waiter) ~fp ~source ~status ~record_json
    ~started_ns ~done_ns ~shard =
  let respond_start = now_ns () in
  Obs.Counter.incr c_responses;
  t.n_completed <- t.n_completed + 1;
  (match source with
  | Protocol.Cache ->
      Obs.Counter.incr c_cache_hit;
      t.n_cache_hits <- t.n_cache_hits + 1
  | Protocol.Solve | Protocol.Collapsed -> ());
  (match find_conn t waiter.Jobs.w_client with
  | Some conn ->
      send conn
        (Protocol.Result_frame
           { id = waiter.Jobs.w_id; source; record = record_json });
      Jobs.remember t.jobs ~client:waiter.Jobs.w_client ~id:waiter.Jobs.w_id
        ~source ~record:record_json
  | None -> () (* the requester hung up; the record still reached the cache *));
  Admission.release t.admission ~client:waiter.Jobs.w_client;
  let respond_end = now_ns () in
  emit_request_spans ~fp ~client:waiter.Jobs.w_client ~id:waiter.Jobs.w_id
    ~source ~status ~submit_ns:waiter.Jobs.w_submit_ns ~started_ns ~done_ns
    ~respond_start ~respond_end ~shard

let handle_completion t ~shards (key, (record : Engine.Record.t)) =
  match Jobs.complete t.jobs ~key with
  | None -> () (* aborted before completion; nothing to answer *)
  | Some entry ->
      (match t.cache with
      | Some cache when Engine.Record.cacheable record ->
          (match Engine.Cache.store cache record with
          | Ok () -> ()
          | Error _ -> () (* a full disk must not take the daemon down *))
      | _ -> ());
      let record_json = Engine.Record.to_json record in
      let status = Engine.Record.status_name record.Engine.Record.status in
      let done_ns = now_ns () in
      let shard = List.assoc_opt key shards in
      List.iteri
        (fun i waiter ->
          respond_result t ~waiter ~fp:entry.Jobs.j_fp
            ~source:(if i = 0 then Protocol.Solve else Protocol.Collapsed)
            ~status ~record_json ~started_ns:entry.Jobs.j_started_ns ~done_ns
            ~shard:(if i = 0 then shard else None))
        entry.Jobs.j_waiters;
      (* No waiters (all cancelled or disconnected): the shard has no
         request tree to live under; absorb it at the top level so the
         solve is still on the timeline. *)
      if entry.Jobs.j_waiters = [] then
        match shard with
        | Some path ->
            ignore (Obs.absorb_shard path : int);
            (try Sys.remove path with Sys_error _ -> ())
        | None -> ()

(* ---- request handling ---------------------------------------------------- *)

let stats_json t =
  let open Obs.Json in
  let cache_stats =
    match t.cache with
    | Some c -> Engine.Cache.stats_to_json (Engine.Cache.stats c)
    | None -> Null
  in
  Obj
    [
      ( "uptime_s",
        Float (Support.Util.seconds_of_ns (Int64.sub (now_ns ()) t.started_ns))
      );
      ( "queue",
        Obj
          [
            ("depth", Int (Engine.Pool.queued t.pool));
            ("in_flight", Int (Engine.Pool.in_flight t.pool));
            ("outstanding", Int (Admission.outstanding t.admission));
            ("limit", Int t.config.admission.Admission.queue_limit);
          ] );
      ( "requests",
        Obj
          [
            ("submitted", Int t.n_submitted);
            ("completed", Int t.n_completed);
            ("busy", Int t.n_busy);
            ("cancelled", Int t.n_cancelled);
            ("cache_hits", Int t.n_cache_hits);
          ] );
      ("cache", cache_stats);
      ("instances", Obj [ ("entries", Int (Instances.length t.instances)) ]);
      ("draining", Bool t.draining);
    ]

let busy t conn ~id reason =
  Obs.Counter.incr c_busy;
  t.n_busy <- t.n_busy + 1;
  send conn
    (Protocol.Busy
       { id; reason; queue_depth = Admission.outstanding t.admission })

let handle_submit t conn ~id ~job =
  Obs.Counter.incr c_requests;
  t.n_submitted <- t.n_submitted + 1;
  if t.draining then busy t conn ~id Protocol.Draining
  else if Jobs.find_by_waiter t.jobs ~client:conn.cn_id ~id <> None then
    send conn
      (Protocol.Error_frame
         { id = Some id; message = "request id already in flight" })
  else
    match Engine.Spec.fingerprint ~schema:Engine.Record.schema_version job with
    | Error e -> send conn (Protocol.Error_frame { id = Some id; message = e })
    | Ok fp -> (
        match Admission.try_admit t.admission ~client:conn.cn_id with
        | Admission.Client_limit -> busy t conn ~id Protocol.Client_limit
        | Admission.Queue_full -> busy t conn ~id Protocol.Queue_full
        | Admission.Admit -> (
            let submit_ns = now_ns () in
            (* Warm the instance LRU in the coordinator while we are at
               it — the fork below then shares the parsed structure. *)
            (match job.Engine.Spec.instance with
            | Engine.Spec.Hmetis_file path ->
                ignore (Instances.load t.instances path : Hypergraph.t option)
            | _ -> ());
            match
              Option.bind t.cache (fun cache -> Engine.Cache.find cache fp)
            with
            | Some record ->
                (* Served entirely at admission: ack + result, ticket
                   returned inside respond_result. *)
                send conn (Protocol.Ack { id; fingerprint = fp; position = 0 });
                let done_ns = now_ns () in
                respond_result t
                  ~waiter:
                    {
                      Jobs.w_client = conn.cn_id;
                      w_id = id;
                      w_submit_ns = submit_ns;
                    }
                  ~fp ~source:Protocol.Cache
                  ~status:
                    (Engine.Record.status_name record.Engine.Record.status)
                  ~record_json:(Engine.Record.to_json record)
                  ~started_ns:None ~done_ns ~shard:None
            | None -> (
                match
                  Jobs.submit t.jobs ~fingerprint:fp ~job ~client:conn.cn_id
                    ~id ~now:submit_ns
                with
                | `New entry ->
                    Engine.Pool.submit t.pool ~index:entry.Jobs.j_key
                      ~fingerprint:fp job;
                    send conn
                      (Protocol.Ack
                         {
                           id;
                           fingerprint = fp;
                           position = max 0 (Engine.Pool.queued t.pool - 1);
                         })
                | `Attached entry ->
                    send conn
                      (Protocol.Ack
                         {
                           id;
                           fingerprint = fp;
                           position =
                             (match entry.Jobs.j_started_ns with
                             | Some _ -> 0
                             | None -> max 0 (Engine.Pool.queued t.pool - 1));
                         }))))

let handle_request t conn = function
  | Protocol.Submit { id; job } -> handle_submit t conn ~id ~job
  | Protocol.Status { id } -> (
      match Jobs.find_by_waiter t.jobs ~client:conn.cn_id ~id with
      | Some entry ->
          let state, position =
            match entry.Jobs.j_started_ns with
            | Some _ -> (Protocol.Running, None)
            | None -> (Protocol.Queued, Some (Engine.Pool.queued t.pool))
          in
          send conn (Protocol.Info { id; state; position })
      | None -> (
          match Jobs.recall t.jobs ~client:conn.cn_id ~id with
          | Some _ ->
              send conn
                (Protocol.Info { id; state = Protocol.Done_state; position = None })
          | None ->
              send conn
                (Protocol.Info { id; state = Protocol.Unknown; position = None })))
  | Protocol.Result { id } -> (
      match Jobs.recall t.jobs ~client:conn.cn_id ~id with
      | Some (source, record) ->
          send conn (Protocol.Result_frame { id; source; record })
      | None -> (
          match Jobs.find_by_waiter t.jobs ~client:conn.cn_id ~id with
          | Some entry ->
              let state =
                match entry.Jobs.j_started_ns with
                | Some _ -> Protocol.Running
                | None -> Protocol.Queued
              in
              send conn (Protocol.Info { id; state; position = None })
          | None ->
              send conn
                (Protocol.Error_frame
                   { id = Some id; message = "unknown request id" })))
  | Protocol.Cancel { id } -> (
      match Jobs.cancel t.jobs ~client:conn.cn_id ~id with
      | `Unknown ->
          send conn
            (Protocol.Error_frame
               { id = Some id; message = "unknown request id" })
      | `Detached | `Orphaned ->
          Admission.release t.admission ~client:conn.cn_id;
          t.n_cancelled <- t.n_cancelled + 1;
          send conn (Protocol.Cancelled { id })
      | `Abort key ->
          ignore (Engine.Pool.cancel t.pool ~index:key : bool);
          Admission.release t.admission ~client:conn.cn_id;
          t.n_cancelled <- t.n_cancelled + 1;
          send conn (Protocol.Cancelled { id }))
  | Protocol.Stats -> send conn (Protocol.Stats_frame (stats_json t))
  | Protocol.Shutdown ->
      send conn Protocol.Bye;
      t.drain_requested <- true

(* ---- connection lifecycle ------------------------------------------------ *)

let disconnect t conn =
  (try Unix.close conn.cn_fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c -> c.cn_id <> conn.cn_id) t.conns;
  ignore (Admission.forget_client t.admission ~client:conn.cn_id : int);
  List.iter
    (fun key -> ignore (Engine.Pool.cancel t.pool ~index:key : bool))
    (Jobs.forget_client t.jobs ~client:conn.cn_id)

let accept_pending t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        let conn =
          {
            cn_id = t.next_conn_id;
            cn_fd = fd;
            cn_dec = Protocol.decoder ();
            cn_out = Buffer.create 1024;
            cn_closing = false;
          }
        in
        t.next_conn_id <- t.next_conn_id + 1;
        t.conns <- conn :: t.conns;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> go ()
  in
  if t.accepting then go ()

let read_conn t conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.cn_fd chunk 0 (Bytes.length chunk) with
  | 0 -> disconnect t conn
  | n -> (
      Protocol.feed conn.cn_dec (Bytes.sub_string chunk 0 n);
      let rec drain_frames () =
        match Protocol.next conn.cn_dec with
        | None -> ()
        | Some json ->
            (match Protocol.request_of_json json with
            | Ok req -> handle_request t conn req
            | Error message ->
                send conn (Protocol.Error_frame { id = None; message }));
            drain_frames ()
      in
      drain_frames ();
      match Protocol.decoder_error conn.cn_dec with
      | Some message ->
          (* Byte boundaries are lost; say why, then hang up. *)
          send conn (Protocol.Error_frame { id = None; message });
          conn.cn_closing <- true
      | None -> ())
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      disconnect t conn

let flush_conn t conn =
  if Buffer.length conn.cn_out > 0 then begin
    let data = Buffer.contents conn.cn_out in
    match Unix.single_write_substring conn.cn_fd data 0 (String.length data) with
    | written ->
        Buffer.clear conn.cn_out;
        if written < String.length data then
          Buffer.add_substring conn.cn_out data written
            (String.length data - written)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        disconnect t conn
  end;
  if conn.cn_closing && Buffer.length conn.cn_out = 0 then disconnect t conn

(* ---- drain --------------------------------------------------------------- *)

let initiate_drain t =
  if not t.draining then begin
    t.draining <- true;
    t.accepting <- false;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.config.endpoint with
    | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ());
    Engine.Pool.stop_forking t.pool;
    (* Queued jobs become Skipped records and flow through the normal
       completion path, so every waiter still gets a result frame. *)
    let skipped = Engine.Pool.skip_queued ~reason:"draining" t.pool in
    let shards = Engine.Pool.take_shards t.pool in
    List.iter (handle_completion t ~shards) skipped
  end

let draining t = t.draining

let finished t =
  t.draining && Engine.Pool.idle t.pool
  && List.for_all (fun c -> Buffer.length c.cn_out = 0) t.conns

(* ---- the loop ------------------------------------------------------------ *)

let step ?(timeout = 0.05) t =
  if t.drain_requested then initiate_drain t;
  let conn_fds = List.map (fun c -> c.cn_fd) t.conns in
  let extra_fds =
    if t.accepting then t.listen_fd :: conn_fds else conn_fds
  in
  (* Queue exits are observed through pool events: started_ns feeds the
     queue_wait span and the Running state. *)
  let on_event = function
    | Engine.Pool.Started { index; _ } ->
        Jobs.start t.jobs ~key:index ~now:(now_ns ())
    | Engine.Pool.Finished _ | Engine.Pool.Retrying _
    | Engine.Pool.Interrupted _ ->
        ()
  in
  let completed, readable =
    Engine.Pool.step ~on_event ~extra_fds ~timeout t.pool
  in
  let shards = Engine.Pool.take_shards t.pool in
  List.iter (handle_completion t ~shards) completed;
  if t.accepting && List.memq t.listen_fd readable then accept_pending t;
  List.iter
    (fun conn -> if List.memq conn.cn_fd readable then read_conn t conn)
    (* read_conn can disconnect; iterate over a snapshot *)
    (List.filter (fun c -> List.memq c.cn_fd readable) t.conns);
  List.iter (flush_conn t) t.conns;
  Obs.Gauge.set g_queue_depth (float_of_int (Engine.Pool.queued t.pool))

let close t =
  List.iter (fun c -> try Unix.close c.cn_fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [];
  if t.accepting then begin
    t.accepting <- false;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    match t.config.endpoint with
    | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ()
  end;
  (* Anything not absorbed under a request tree (e.g. jobs whose clients
     vanished mid-drain) still joins the timeline. *)
  Engine.Pool.absorb_shards t.pool

let run t =
  let previous =
    Sys.signal Sys.sigint
      (Sys.Signal_handle (fun _ -> t.drain_requested <- true))
  in
  (* A client that vanishes mid-write must cost that connection, not the
     daemon: unless SIGPIPE is ignored its default disposition kills the
     process before [flush_conn]'s EPIPE handling can run. *)
  let previous_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () ->
      Sys.set_signal Sys.sigint previous;
      Sys.set_signal Sys.sigpipe previous_pipe)
  @@ fun () ->
  while not (finished t) do
    step t
  done;
  close t
