(* Fork-join [map]: the caller runs as worker 0 and spawns the other
   workers for this one call.  Every worker claims task indices from an
   atomic ticket counter and writes each outcome at its own index, so the
   gathered array does not depend on the schedule.  Task exceptions are
   caught per index and never cross a domain boundary raw; once every
   spawned domain is joined, the smallest-index one is re-raised. *)

let map ~threads ~n f =
  let outcomes = Array.make n None in
  let tickets = Atomic.make 0 in
  let rec work worker =
    let i = Atomic.fetch_and_add tickets 1 in
    if i < n then begin
      outcomes.(i) <- Some (try Ok (f ~worker i) with e -> Error e);
      work worker
    end
  in
  let spawned =
    List.init
      (max 0 (min threads n - 1))
      (fun w -> Domain.spawn (fun () -> work (w + 1)))
  in
  work 0;
  List.iter Domain.join spawned;
  Array.map
    (function
      | Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
    outcomes
