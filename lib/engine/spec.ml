(* Job plans for the batch engine.

   A job is the deterministic unit of work the engine schedules: an
   instance source (an hMETIS or DAG file, a generator spec, an
   experiment id, or a fault-injection drill), a solver configuration, a
   seed and an optional wall-clock budget.  Everything a job needs to run
   is in the plan — workers receive the plan, never ambient state — which
   is what makes results cacheable and re-runs byte-reproducible.

   The canonical serialization ([canonical]) is the byte string that gets
   fingerprinted: file instances contribute their *content* digest (so a
   changed input invalidates cached results even at an unchanged path),
   and the result-schema version is mixed in (so a schema bump invalidates
   the whole cache).  Timeouts are deliberately excluded: the budget
   bounds a run, it does not change what the run computes. *)

type gen_kind = Uniform | Two_regular | Planted | Spmv | Fft | Stencil

type instance =
  | Hmetis_file of string
  | Dag_file of string
  | Generated of { kind : gen_kind; n : int }
  | Experiment of string
  | Spin of float
  | Crash of int

type algorithm = Multilevel | Recursive | Fm | Bfs | Random | Exact

type config = {
  k : int;
  eps : float;
  algorithm : algorithm;
  metric : Partition.metric;
}

let default_config =
  {
    k = 2;
    eps = 0.03;
    algorithm = Multilevel;
    metric = Partition.Connectivity;
  }

type job = {
  instance : instance;
  config : config;
  seed : int;
  timeout_s : float option;
}

(* ---- names (shared by the manifest parser, the CLI and the codecs) ---- *)

let gen_kinds =
  [
    ("uniform", Uniform); ("two-regular", Two_regular); ("planted", Planted);
    ("spmv", Spmv); ("fft", Fft); ("stencil", Stencil);
  ]

let algorithms =
  [
    ("multilevel", Multilevel); ("recursive", Recursive); ("fm", Fm);
    ("bfs", Bfs); ("random", Random); ("exact", Exact);
  ]

let metrics =
  [ ("connectivity", Partition.Connectivity); ("cutnet", Partition.Cut_net) ]

let name_of assoc v =
  match List.find_opt (fun (_, x) -> x = v) assoc with
  | Some (name, _) -> name
  | None -> failwith "Spec.name_of: unnamed constructor"

let gen_kind_name k = name_of gen_kinds k
let algorithm_name a = name_of algorithms a
let metric_name m = name_of metrics m

(* A compact human label for progress lines and error messages. *)
let describe job =
  match job.instance with
  | Experiment id -> id
  | Spin s -> Printf.sprintf "spin %gs" s
  | Crash c -> Printf.sprintf "crash %d" c
  | instance ->
      let what =
        match instance with
        | Hmetis_file p -> p
        | Dag_file p -> p
        | Generated { kind; n } -> Printf.sprintf "%s n=%d" (gen_kind_name kind) n
        | Experiment _ | Spin _ | Crash _ -> assert false
      in
      Printf.sprintf "%s k=%d %s seed=%d" what job.config.k
        (algorithm_name job.config.algorithm)
        job.seed

(* Whether the solver configuration and seed take part in the job's
   identity.  Experiments are self-contained closures with their own
   internal seeding, and the fault drills compute nothing, so for those
   the expansion pins config/seed and the fingerprint ignores them. *)
let config_sensitive job =
  match job.instance with
  | Hmetis_file _ | Dag_file _ | Generated _ -> true
  | Experiment _ | Spin _ | Crash _ -> false

(* ---- validation -------------------------------------------------------- *)

let validate job =
  let { k; eps; _ } = job.config in
  if k < 1 then Error (Printf.sprintf "k must be >= 1 (got %d)" k)
  else if Float.is_nan eps || eps < 0.0 then
    Error (Printf.sprintf "eps must be >= 0 (got %g)" eps)
  else
    match job.instance with
    | Generated { n; _ } when n < 1 ->
        Error (Printf.sprintf "generated instance needs n >= 1 (got %d)" n)
    | Generated { n; _ } when n > Hypergraph.max_nodes ->
        Error
          (Printf.sprintf "generated instance needs n <= %d (got %d)"
             Hypergraph.max_nodes n)
    | Spin s when s < 0.0 ->
        Error (Printf.sprintf "spin seconds must be >= 0 (got %g)" s)
    | _ -> (
        match job.timeout_s with
        | Some t when t <= 0.0 ->
            Error (Printf.sprintf "timeout_s must be > 0 (got %g)" t)
        | _ -> Ok ())

(* At most one part per node, and one part for the empty hypergraph:
   checked once the instance, and so n, is known. *)
let validate_k ~n k =
  let bound = max 1 n in
  if k > bound then Error (Printf.sprintf "k must be <= %d (got %d)" bound k)
  else Ok ()

(* ---- canonical serialization ------------------------------------------- *)

(* Floats are rendered with %.17g so the canonical form round-trips the
   exact IEEE value: two jobs differing in the 17th digit of eps are
   different jobs. *)
let float_canon f = Printf.sprintf "%.17g" f

let instance_canon instance =
  match instance with
  | Hmetis_file path -> (
      match Fingerprint.digest_file path with
      | Ok d -> Ok (Printf.sprintf "hmetis:%s" d)
      | Error e -> Error e)
  | Dag_file path -> (
      match Fingerprint.digest_file path with
      | Ok d -> Ok (Printf.sprintf "dag:%s" d)
      | Error e -> Error e)
  | Generated { kind; n } -> Ok (Printf.sprintf "gen:%s:%d" (gen_kind_name kind) n)
  | Experiment id -> Ok (Printf.sprintf "experiment:%s" id)
  | Spin s -> Ok (Printf.sprintf "spin:%s" (float_canon s))
  | Crash c -> Ok (Printf.sprintf "crash:%d" c)

let canonical ~schema job =
  match instance_canon job.instance with
  | Error e -> Error e
  | Ok inst ->
      if config_sensitive job then
        (* The solver's thread count is deliberately absent: every count
           returns the same result, so it bounds a run like a timeout
           does. *)
        Ok
          (Printf.sprintf "%s|instance=%s|k=%d|eps=%s|alg=%s|metric=%s|seed=%d"
             schema inst job.config.k (float_canon job.config.eps)
             (algorithm_name job.config.algorithm)
             (metric_name job.config.metric)
             job.seed)
      else Ok (Printf.sprintf "%s|instance=%s" schema inst)

let fingerprint ~schema job =
  match canonical ~schema job with
  | Ok c -> Ok (Fingerprint.digest c)
  | Error e -> Error e

(* ---- JSON codec (embedded in result records and batch reports) --------- *)

let instance_to_json instance =
  let open Obs.Json in
  match instance with
  | Hmetis_file path -> Obj [ ("type", Str "hmetis"); ("path", Str path) ]
  | Dag_file path -> Obj [ ("type", Str "dag"); ("path", Str path) ]
  | Generated { kind; n } ->
      Obj [ ("type", Str "generated"); ("kind", Str (gen_kind_name kind)); ("n", Int n) ]
  | Experiment id -> Obj [ ("type", Str "experiment"); ("id", Str id) ]
  | Spin s -> Obj [ ("type", Str "spin"); ("seconds", Float s) ]
  | Crash c -> Obj [ ("type", Str "crash"); ("code", Int c) ]

let to_json job =
  let open Obs.Json in
  Obj
    ([
       ("instance", instance_to_json job.instance);
       ("k", Int job.config.k);
       ("eps", Float job.config.eps);
       ("algorithm", Str (algorithm_name job.config.algorithm));
       ("metric", Str (metric_name job.config.metric));
       ("seed", Int job.seed);
     ]
    @ match job.timeout_s with None -> [] | Some t -> [ ("timeout_s", Float t) ])

(* Decoding is total over well-formed records: any shape defect is an
   [Error], never an exception, so a corrupted cache entry degrades to a
   miss rather than a crash.  The writer renders a non-finite float as
   [null]; +∞ is the one non-finite ε (and spin length) {!validate}
   admits, so a [null] there reads back as +∞. *)

let ( let* ) = Result.bind

let get_unbounded = function
  | Obs.Json.Null -> Some Float.infinity
  | v -> Obs.Json.get_float v

let instance_of_json json =
  let open Obs.Json in
  let* ty = field "type" get_str json in
  match ty with
  | "hmetis" -> Result.map (fun p -> Hmetis_file p) (field "path" get_str json)
  | "dag" -> Result.map (fun p -> Dag_file p) (field "path" get_str json)
  | "generated" ->
      let* kind = field "kind" (get_enum gen_kinds) json in
      let* n = field "n" get_int json in
      Ok (Generated { kind; n })
  | "experiment" ->
      Result.map (fun id -> Experiment id) (field "id" get_str json)
  | "spin" ->
      Result.map (fun s -> Spin s) (field "seconds" get_unbounded json)
  | "crash" -> Result.map (fun c -> Crash c) (field "code" get_int json)
  | other -> Error (Printf.sprintf "unknown instance type %S" other)

let of_json json =
  let open Obs.Json in
  let* instance = field "instance" Option.some json in
  let* instance = instance_of_json instance in
  let* k = field "k" get_int json in
  let* eps = field "eps" get_unbounded json in
  let* algorithm = field "algorithm" (get_enum algorithms) json in
  let* metric = field "metric" (get_enum metrics) json in
  let* seed = field "seed" get_int json in
  let* timeout_s = optional "timeout_s" get_float json in
  Ok { instance; config = { k; eps; algorithm; metric }; seed; timeout_s }
