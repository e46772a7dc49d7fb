(* A steppable serve-protocol client.

   Deliberately not a blocking convenience wrapper: the test suite runs
   daemon and clients interleaved in ONE thread (tests can neither fork
   nor spawn threads — SRC08 and the repo's single-threaded design), so
   every operation here is non-blocking and progress happens in [step]. *)

type t = {
  fd : Unix.file_descr;
  dec : Protocol.decoder;
  out : Buffer.t;
  mutable inbox : Protocol.response list;  (* newest first *)
  mutable closed : bool;
  mutable error : string option;
}

let connect endpoint =
  let sock () =
    match (endpoint : Daemon.endpoint) with
    | Daemon.Unix_socket path ->
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
    | Daemon.Tcp (host, port) ->
        let addr =
          if String.equal host "" then Unix.inet_addr_loopback
          else Unix.inet_addr_of_string host
        in
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (addr, port));
        fd
  in
  match sock () with
  | fd ->
      (* Blocking connect (the listener's backlog accepts immediately),
         non-blocking everything after. *)
      Unix.set_nonblock fd;
      Ok
        {
          fd;
          dec = Protocol.decoder ();
          out = Buffer.create 1024;
          inbox = [];
          closed = false;
          error = None;
        }
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "connect: %s: %s" fn (Unix.error_message e))

let request t req =
  if not t.closed then
    Buffer.add_string t.out (Protocol.encode (Protocol.request_to_json req))

let closed t = t.closed
let error t = t.error

let fail t msg =
  if t.error = None then t.error <- Some msg;
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let flush_out t =
  if (not t.closed) && Buffer.length t.out > 0 then begin
    let data = Buffer.contents t.out in
    match Unix.single_write_substring t.fd data 0 (String.length data) with
    | written ->
        Buffer.clear t.out;
        if written < String.length data then
          Buffer.add_substring t.out data written (String.length data - written)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        fail t "connection reset while writing"
  end

let read_in t =
  if not t.closed then begin
    let chunk = Bytes.create 65536 in
    match Unix.read t.fd chunk 0 (Bytes.length chunk) with
    | 0 -> close t (* orderly EOF from the daemon *)
    | n -> (
        Protocol.feed t.dec (Bytes.sub_string chunk 0 n);
        let rec drain () =
          match Protocol.next t.dec with
          | None -> ()
          | Some json ->
              (match Protocol.response_of_json json with
              | Ok resp -> t.inbox <- resp :: t.inbox
              | Error e -> fail t (Printf.sprintf "bad response frame: %s" e));
              drain ()
        in
        drain ();
        match Protocol.decoder_error t.dec with
        | Some e -> fail t (Printf.sprintf "framing: %s" e)
        | None -> ())
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        fail t "connection reset while reading"
  end

let step ?(timeout = 0.0) t =
  if not t.closed then begin
    flush_out t;
    (match
       Unix.select [ t.fd ] [] [] timeout
     with
    | readable, _, _ -> if readable <> [] then read_in t
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    flush_out t
  end

let recv t =
  match List.rev t.inbox with
  | [] -> None
  | oldest :: rest ->
      t.inbox <- List.rev rest;
      Some oldest
