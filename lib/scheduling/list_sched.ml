(* List scheduling of unit-time tasks: at each time step, run the (at most
   k) ready nodes of highest priority.  With the "level" priority (longest
   path to a sink) this is Hu's algorithm, optimal on in- and out-forests;
   in general it is a 2 - 1/k approximation (Graham). *)

let level_priority dag = Hyperdag.Dag.longest_path_from dag

let schedule ?priority dag ~k =
  if k < 1 then invalid_arg "List_sched.schedule: k >= 1";
  Obs.Span.with_ "sched.list"
    ~attrs:
      [ ("n", Obs.Int (Hyperdag.Dag.num_nodes dag)); ("k", Obs.Int k) ]
  @@ fun () ->
  let n = Hyperdag.Dag.num_nodes dag in
  let priority = match priority with Some p -> p | None -> level_priority dag in
  let indeg = Array.init n (fun v -> Hyperdag.Dag.in_degree dag v) in
  let proc = Array.make n 0 and time = Array.make n 0 in
  (* Ready nodes in a binary max-heap on (priority, insertion number):
     among equal priorities the node made ready last comes first.  That
     is the order a stable sort by priority gives a ready list built by
     prepending, so the schedule is the one of re-sorting such a list
     every step, in O((n + m) log n) instead of O(n^2 log n). *)
  let heap = Array.make n 0 and inserted = Array.make n 0 in
  let size = ref 0 and next = ref 0 in
  let before a b =
    priority.(a) > priority.(b)
    || (priority.(a) = priority.(b) && inserted.(a) > inserted.(b))
  in
  let push v =
    inserted.(v) <- !next;
    incr next;
    let i = ref !size in
    incr size;
    while !i > 0 && before v heap.((!i - 1) / 2) do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- v
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and continue = ref (!size > 0) in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && before heap.(l + 1) heap.(l) then l + 1 else l in
        if before heap.(c) last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    if !size > 0 then heap.(!i) <- last;
    top
  in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then push v
  done;
  let chosen = Array.make (min k n) 0 in
  let step = ref 0 and scheduled = ref 0 in
  while !scheduled < n do
    incr step;
    let count = min k !size in
    assert (count > 0);
    for i = 0 to count - 1 do
      let v = pop () in
      chosen.(i) <- v;
      proc.(v) <- i;
      time.(v) <- !step
    done;
    scheduled := !scheduled + count;
    (* Release successors that became ready, after the step is filled. *)
    for i = 0 to count - 1 do
      Hyperdag.Dag.iter_succs dag chosen.(i) (fun w ->
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then push w)
    done
  done;
  Obs.Span.attr "makespan" (Obs.Int !step);
  Schedule.create ~proc ~time

let makespan dag ~k = Schedule.makespan (schedule dag ~k)
