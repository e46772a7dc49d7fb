(** Single-flight job registry: one solve per fingerprint, however many
    clients ask.

    The content-addressed cache collapses identical requests across
    time; this registry collapses them across clients at the same
    instant.  A submit matching an in-flight fingerprint attaches as a
    waiter instead of taking a queue slot; on completion, every waiter
    gets a result frame (first in submission order is the ["solve"] /
    ["cache"] source, the rest ["collapsed"]).

    Cancellation is per-waiter — it removes {e your} interest.  Only
    when the last waiter leaves a still-queued entry does the job die;
    a running job always finishes, and its result feeds the cache. *)

type waiter = { w_client : int; w_id : int; w_submit_ns : int64 }

type entry = {
  j_key : int;  (** the pool index *)
  j_fp : string;
  j_job : Engine.Spec.job;
  mutable j_waiters : waiter list;  (** submission order *)
  mutable j_started_ns : int64 option;  (** [None] while queued *)
}

type t

val create : unit -> t

val submit :
  t ->
  fingerprint:string ->
  job:Engine.Spec.job ->
  client:int ->
  id:int ->
  now:int64 ->
  [ `New of entry | `Attached of entry ]
(** [`New] allocated a fresh key (submit it to the pool); [`Attached]
    joined an in-flight entry (do not). *)

val start : t -> key:int -> now:int64 -> unit
(** The pool forked this entry's worker: record its queue-exit time. *)

val complete : t -> key:int -> entry option
(** Remove a finished entry, returning it (with its waiters) for the
    respond path.  [None] if the key is not live (e.g. aborted). *)

val cancel :
  t ->
  client:int ->
  id:int ->
  [ `Unknown  (** no such waiter *)
  | `Detached  (** waiter removed; others still wait *)
  | `Orphaned  (** waiter removed; the running job finishes for the cache *)
  | `Abort of int  (** entry removed while queued — cancel this pool key *)
  ]

val forget_client : t -> client:int -> int list
(** Drop all of a disconnected client's waiters; returns pool keys of
    queued entries left waiterless, for the daemon to cancel. *)

val find_by_waiter : t -> client:int -> id:int -> entry option
val live : t -> int

val remember :
  t -> client:int -> id:int -> source:Protocol.source -> record:Obs.Json.t ->
  unit
(** Keep a delivered result for [Protocol.Result] re-requests (bounded
    FIFO; oldest entries are forgotten first). *)

val recall : t -> client:int -> id:int -> (Protocol.source * Obs.Json.t) option
