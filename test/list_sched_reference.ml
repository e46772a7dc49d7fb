(* The list scheduler that Scheduling.List_sched replaced, kept verbatim
   (its trace span dropped, the level priority spelled through the
   library) as the reference the heap-based scheduler is checked against
   in test_scheduling.ml: the ready list is rebuilt by prepending and
   stably re-sorted by priority at every time step, O(n^2 log n) on an
   edgeless DAG. *)

let schedule ?priority dag ~k =
  if k < 1 then invalid_arg "List_sched.schedule: k >= 1";
  let n = Hyperdag.Dag.num_nodes dag in
  let priority =
    match priority with
    | Some p -> p
    | None -> Scheduling.List_sched.level_priority dag
  in
  let indeg = Array.init n (fun v -> Hyperdag.Dag.in_degree dag v) in
  let proc = Array.make n 0 and time = Array.make n 0 in
  (* Ready pool as a list re-sorted lazily per step; n is small enough in
     every use of this module that O(n^2 log n) is irrelevant. *)
  let ready = ref [] in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then ready := v :: !ready
  done;
  let step = ref 0 and scheduled = ref 0 in
  while !scheduled < n do
    incr step;
    let sorted =
      List.sort (fun a b -> Int.compare priority.(b) priority.(a)) !ready
    in
    let rec take acc cnt = function
      | [] -> (List.rev acc, [])
      | rest when cnt = k -> (List.rev acc, rest)
      | x :: rest -> take (x :: acc) (cnt + 1) rest
    in
    let chosen, rest = take [] 0 sorted in
    ready := rest;
    assert (chosen <> []);
    List.iteri
      (fun i v ->
        proc.(v) <- i;
        time.(v) <- !step;
        incr scheduled)
      chosen;
    (* Release successors that became ready. *)
    List.iter
      (fun v ->
        Hyperdag.Dag.iter_succs dag v (fun w ->
            indeg.(w) <- indeg.(w) - 1;
            if indeg.(w) = 0 then ready := w :: !ready))
      chosen
  done;
  Scheduling.Schedule.create ~proc ~time
