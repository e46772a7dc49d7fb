(* loadgen — latency-SLO load bench for the hypartition serve daemon.

   A thin flag-parsing wrapper over Server.Loadgen: connect N clients to
   a running daemon, drive a closed- or open-loop request mix, and print
   the hypartition-loadgen/1 SLO report (p50/p99/p999, throughput,
   error and backpressure rates, cache-source breakdown) as JSON.
   `hypartition trace` validates the report; CI gates on jq extracts of
   it.

   Mixes come from --mix-file presets (bench/mixes/*.json) with any
   explicit flag overriding the preset:
     distinct >= requests       cold sweep (every solve unique)
     small distinct             duplicate-heavy (cache + single-flight
                                collapse should absorb most of it)
     re-run, same --cache-dir   warm (served from the result cache)

   Closed loop (default) keeps one request outstanding per client — a
   saturation probe.  --mode open --rate R fires submits on a fixed
   schedule whatever the server does, which is what actually exposes
   queueing and Busy backpressure. *)

open Cmdliner

type mix = {
  m_clients : int option;
  m_requests : int option;
  m_mode : [ `Closed | `Open ] option;
  m_rate : float option;
  m_distinct : int option;
  m_n : int option;
  m_k : int option;
  m_seed : int option;
}

let empty_mix =
  {
    m_clients = None;
    m_requests = None;
    m_mode = None;
    m_rate = None;
    m_distinct = None;
    m_n = None;
    m_k = None;
    m_seed = None;
  }

let load_mix path =
  let content =
    try Ok (In_channel.with_open_text path In_channel.input_all)
    with Sys_error msg -> Error msg
  in
  match content with
  | Error msg -> Error msg
  | Ok content -> (
      match Obs.Json.parse (String.trim content) with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok doc ->
          let int name = Option.bind (Obs.Json.member name doc) Obs.Json.get_int in
          let num name =
            Option.bind (Obs.Json.member name doc) Obs.Json.get_float
          in
          let mode =
            match Option.bind (Obs.Json.member "mode" doc) Obs.Json.get_str with
            | Some "closed" -> Some `Closed
            | Some "open" -> Some `Open
            | _ -> None
          in
          Ok
            {
              m_clients = int "clients";
              m_requests = int "requests";
              m_mode = mode;
              m_rate = num "rate";
              m_distinct = int "distinct";
              m_n = int "n";
              m_k = int "k";
              m_seed = int "seed";
            })

let run socket tcp mix_file clients requests mode rate distinct n k seed
    shutdown out =
  let endpoint =
    match tcp with
    | None -> Ok (Server.Daemon.Unix_socket socket)
    | Some spec -> (
        let host, port_str =
          match String.rindex_opt spec ':' with
          | Some i ->
              ( String.sub spec 0 i,
                String.sub spec (i + 1) (String.length spec - i - 1) )
          | None -> ("", spec)
        in
        match int_of_string_opt port_str with
        | Some port when port > 0 && port < 65536 ->
            Ok (Server.Daemon.Tcp (host, port))
        | _ ->
            Error
              (Printf.sprintf "bad --tcp endpoint %S (want PORT or HOST:PORT)"
                 spec))
  in
  let mix =
    match mix_file with None -> Ok empty_mix | Some path -> load_mix path
  in
  match (endpoint, mix) with
  | Error msg, _ | _, Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  | Ok endpoint, Ok mix -> (
      (* Explicit flag > mix-file preset > built-in default. *)
      let pick flag preset default =
        match flag with
        | Some v -> v
        | None -> Option.value preset ~default
      in
      let d = Server.Loadgen.default_config in
      let config =
        {
          Server.Loadgen.endpoint;
          clients = pick clients mix.m_clients d.Server.Loadgen.clients;
          requests = pick requests mix.m_requests d.Server.Loadgen.requests;
          mode =
            (match pick mode mix.m_mode `Closed with
            | `Closed -> Server.Loadgen.Closed
            | `Open ->
                Server.Loadgen.Open_rate (pick rate mix.m_rate 50.0));
          distinct = pick distinct mix.m_distinct d.Server.Loadgen.distinct;
          n = pick n mix.m_n d.Server.Loadgen.n;
          k = pick k mix.m_k d.Server.Loadgen.k;
          seed = pick seed mix.m_seed d.Server.Loadgen.seed;
          shutdown_at_end = shutdown;
        }
      in
      match Server.Loadgen.create config with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok gen -> (
          let report = Server.Loadgen.run gen in
          let text = Obs.Json.to_string report in
          match out with
          | None ->
              print_endline text;
              0
          | Some path -> (
              match
                Out_channel.with_open_text path (fun oc ->
                    Out_channel.output_string oc (text ^ "\n"))
              with
              | () -> 0
              | exception Sys_error msg ->
                  Printf.eprintf "error: %s\n" msg;
                  1)))

let main =
  let socket_arg =
    let doc = "Daemon's Unix-domain socket path." in
    Arg.(
      value & opt string "hypartition.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc = "Connect over TCP instead: $(docv) is PORT (loopback) or \
               HOST:PORT." in
    Arg.(
      value & opt (some string) None & info [ "tcp" ] ~docv:"ENDPOINT" ~doc)
  in
  let mix_arg =
    let doc =
      "Mix preset (JSON: clients/requests/mode/rate/distinct/n/k/seed — see \
       bench/mixes/); explicit flags override preset values."
    in
    Arg.(
      value & opt (some file) None & info [ "mix-file" ] ~docv:"MIX" ~doc)
  in
  let clients_arg =
    let doc = "Concurrent client connections." in
    Arg.(value & opt (some int) None & info [ "clients" ] ~docv:"N" ~doc)
  in
  let requests_arg =
    let doc = "Total requests across all clients." in
    Arg.(value & opt (some int) None & info [ "requests" ] ~docv:"N" ~doc)
  in
  let mode_arg =
    let doc =
      "Arrival model: closed (one outstanding request per client) or open \
       (fixed-rate arrivals; see --rate)."
    in
    Arg.(
      value
      & opt (some (enum [ ("closed", `Closed); ("open", `Open) ])) None
      & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let rate_arg =
    let doc = "Open-loop arrival rate in requests per second." in
    Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"RPS" ~doc)
  in
  let distinct_arg =
    let doc =
      "Distinct jobs the requests cycle through: >= --requests is a cold \
       sweep, small values are duplicate-heavy."
    in
    Arg.(value & opt (some int) None & info [ "distinct" ] ~docv:"N" ~doc)
  in
  let n_arg =
    let doc = "Generated-instance size (vertices)." in
    Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc)
  in
  let k_arg =
    let doc = "Number of parts per job." in
    Arg.(value & opt (some int) None & info [ "k" ] ~docv:"K" ~doc)
  in
  let seed_arg =
    let doc = "Base random seed (job i uses seed + i mod distinct)." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let shutdown_arg =
    let doc =
      "Send a shutdown frame once every request settles — CI smoke uses \
       this to test graceful drain."
    in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let out_arg =
    let doc = "Write the SLO report to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"OUT" ~doc)
  in
  let info =
    Cmd.info "loadgen" ~version:"1.0.0"
      ~doc:
        "Load-test a running hypartition serve daemon and print a \
         latency-SLO report (hypartition-loadgen/1): p50/p99/p999 \
         latencies, throughput, error and backpressure rates, and the \
         cache-source breakdown."
  in
  Cmd.v info
    Term.(
      const run $ socket_arg $ tcp_arg $ mix_arg $ clients_arg
      $ requests_arg $ mode_arg $ rate_arg $ distinct_arg $ n_arg $ k_arg
      $ seed_arg $ shutdown_arg $ out_arg)

let () = exit (Cmd.eval' main)
