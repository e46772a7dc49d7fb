(* Fixed domain pool with fork-join scatter/gather.

   The shape is the classic task-pool of parallel multilevel partitioners
   (mt-KaHyPar's thread pool, arXiv:2106.08696): workers idle on a
   condition variable; each job publishes a body and a task count, bumps
   an epoch and broadcasts; workers (and the caller, as worker 0) claim
   task indices from an atomic ticket counter until it runs dry, then
   check in at the join barrier.  Claiming is dynamic — the schedule is
   not reproducible — but results land at their task's own index, so the
   gathered array is schedule-independent and determinism is decided
   purely by the order the caller folds it in.

   Exceptions raised by task bodies never cross a domain boundary raw:
   [map] records them per index and re-raise the smallest-index
   failure on the caller after the barrier, so a crash cannot strand
   workers mid-epoch or tear the pool state. *)

type t = {
  threads : int;
  lock : Mutex.t;
  work_ready : Condition.t; (* a new epoch was published *)
  work_done : Condition.t; (* all spawned workers drained the epoch *)
  mutable epoch : int;
  mutable body : (worker:int -> int -> unit) option;
      (* current epoch's task body, applied to (executing worker, task) *)
  mutable total : int;
  mutable remaining : int; (* spawned workers still inside the epoch *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  tickets : int Atomic.t;
}

let threads t = t.threads

(* Drain the ticket counter: claim-and-run until no task is left.  Runs
   on every worker including the caller; the body must not raise (the
   public entry points wrap task functions to capture exceptions). *)
let drain t ~worker body total =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add t.tickets 1 in
    if i < total then body ~worker i else continue := false
  done

let rec worker_loop t ~worker seen =
  Mutex.lock t.lock;
  while (not t.stop) && t.epoch = seen do
    Condition.wait t.work_ready t.lock
  done;
  if t.stop then Mutex.unlock t.lock
  else begin
    let epoch = t.epoch in
    let body = match t.body with Some f -> f | None -> fun ~worker:_ _ -> () in
    let total = t.total in
    Mutex.unlock t.lock;
    drain t ~worker body total;
    Mutex.lock t.lock;
    t.remaining <- t.remaining - 1;
    if t.remaining = 0 then Condition.broadcast t.work_done;
    Mutex.unlock t.lock;
    worker_loop t ~worker epoch
  end

let create ~threads =
  let threads = max 1 threads in
  let t =
    {
      threads;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      epoch = 0;
      body = None;
      total = 0;
      remaining = 0;
      stop = false;
      domains = [];
      tickets = Atomic.make 0;
    }
  in
  t.domains <-
    List.init (threads - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t ~worker:(i + 1) 0));
  t

let shutdown t =
  match t.domains with
  | [] -> ()
  | domains ->
      Mutex.lock t.lock;
      t.stop <- true;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.lock;
      List.iter Domain.join domains;
      t.domains <- []

let run ~threads f =
  let t = create ~threads in
  match f t with
  | v ->
      shutdown t;
      v
  | exception e ->
      shutdown t;
      raise e

(* One fork-join epoch: publish the body, participate, wait for the
   barrier.  [threads = 1] (or a stopped pool) degenerates to a plain
   index-order loop on the caller — same claims, same writes. *)
let scatter t body total =
  if total > 0 then begin
    if t.threads = 1 || t.domains = [] then
      for i = 0 to total - 1 do
        body ~worker:0 i
      done
    else begin
      Mutex.lock t.lock;
      Atomic.set t.tickets 0;
      t.body <- Some body;
      t.total <- total;
      t.remaining <- t.threads - 1;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.lock;
      drain t ~worker:0 body total;
      Mutex.lock t.lock;
      while t.remaining > 0 do
        Condition.wait t.work_done t.lock
      done;
      t.body <- None;
      Mutex.unlock t.lock
    end
  end

(* Re-raise the smallest-index task failure, if any — the deterministic
   choice when several tasks fail in one epoch. *)
let check_errors errors =
  Array.iter (function Some e -> raise e | None -> ()) errors

let map t ~n f =
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    scatter t
      (fun ~worker i ->
        match f ~worker i with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some e)
      n;
    check_errors errors;
    Array.map (function Some v -> v | None -> assert false) results
  end
