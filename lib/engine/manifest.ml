(* Batch manifests: a small JSON document that expands deterministically
   into a job plan list.

   {
     "schema": "hypartition-manifest/1",
     "defaults": { "k": 4, "eps": 0.03, "algorithm": "multilevel",
                   "metric": "connectivity", "seed": 1, "timeout_s": 60.0 },
     "instances": [ { "file": "inst.hgr" },
                    { "dag": "graph.dag" },
                    { "generate": "uniform", "n": 400 },
                    { "experiment": "E3" },
                    { "spin": 30.0, "timeout_s": 1.0 },
                    { "crash": 66 } ],
     "configs":   [ { "k": 2 }, { "k": 8, "algorithm": "recursive" } ],
     "seeds":     [ 1, 2, 3 ]
   }

   Expansion is the cartesian product instances × configs × seeds, in
   manifest order (instances outermost, seeds innermost), so the same
   manifest always yields the same plan list in the same order.
   Experiments and the fault drills are self-contained: they expand once
   per instance entry, with config and seed pinned, so their cache
   fingerprints do not depend on sweep defaults.  Any instance entry may
   carry a "timeout_s" override. *)

let schema_version = "hypartition-manifest/1"

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* [f] over [items] in order, stopping at the first error. *)
let map_all f items =
  List.fold_left
    (fun acc item ->
      let* acc = acc in
      let* y = f item in
      Ok (y :: acc))
    (Ok []) items
  |> Result.map List.rev

(* A config overlay: defaults overridden by whichever fields an entry
   carries. *)
let config_overlay ~(base : Spec.config) json =
  let open Obs.Json in
  let* k = optional "k" get_int json in
  let* eps = optional "eps" get_float json in
  let* algorithm = optional "algorithm" (get_enum Spec.algorithms) json in
  let* metric = optional "metric" (get_enum Spec.metrics) json in
  Ok
    {
      Spec.k = Option.value ~default:base.Spec.k k;
      eps = Option.value ~default:base.Spec.eps eps;
      algorithm = Option.value ~default:base.Spec.algorithm algorithm;
      metric = Option.value ~default:base.Spec.metric metric;
    }

(* The first of an entry's instance keys, in this order, names its
   instance. *)
let instance_of_entry ~known_experiments json =
  let open Obs.Json in
  let get_experiment v =
    Option.bind (get_str v) (fun id ->
        if List.mem id known_experiments then Some id else None)
  in
  let* file = optional "file" get_str json in
  let* dag = optional "dag" get_str json in
  let* generate = optional "generate" (get_enum Spec.gen_kinds) json in
  let* experiment = optional "experiment" get_experiment json in
  let* spin = optional "spin" get_float json in
  let* crash = optional "crash" get_int json in
  match (file, dag, generate, experiment, spin, crash) with
  | Some path, _, _, _, _, _ -> Ok (Spec.Hmetis_file path)
  | None, Some path, _, _, _, _ -> Ok (Spec.Dag_file path)
  | None, None, Some kind, _, _, _ ->
      let* n = field "n" get_int json in
      Ok (Spec.Generated { kind; n })
  | None, None, None, Some id, _, _ -> Ok (Spec.Experiment id)
  | None, None, None, None, Some s, _ -> Ok (Spec.Spin s)
  | None, None, None, None, None, Some c -> Ok (Spec.Crash c)
  | None, None, None, None, None, None ->
      err
        "instance entry needs one of \"file\", \"dag\", \"generate\", \
         \"experiment\", \"spin\", \"crash\""

let of_json ~known_experiments json =
  let open Obs.Json in
  let* () = schema ~expected:schema_version json in
  let* defaults = optional "defaults" get_obj json in
  let defaults = Obj (Option.value ~default:[] defaults) in
  let* default_config = config_overlay ~base:Spec.default_config defaults in
  let* default_timeout = optional "timeout_s" get_float defaults in
  let* default_seed = optional "seed" get_int defaults in
  let* instance_entries = field "instances" (get_arr get_obj) json in
  let* () =
    if instance_entries = [] then
      err "manifest has an empty \"instances\" array"
    else Ok ()
  in
  let* configs = optional "configs" (get_arr get_obj) json in
  let* configs =
    match configs with
    | None -> Ok [ default_config ]
    | Some l ->
        map_all (fun c -> config_overlay ~base:default_config (Obj c)) l
  in
  let* seeds = optional "seeds" (get_arr get_int) json in
  let seeds =
    match seeds with
    | Some seeds -> seeds
    | None -> [ Option.value ~default:1 default_seed ]
  in
  let* jobs =
    map_all
      (fun entry ->
        let entry = Obj entry in
        let* instance = instance_of_entry ~known_experiments entry in
        let* timeout_s = optional "timeout_s" get_float entry in
        let timeout_s =
          match timeout_s with Some t -> Some t | None -> default_timeout
        in
        let probe =
          { Spec.instance; config = default_config; seed = 0; timeout_s }
        in
        if Spec.config_sensitive probe then
          Ok
            (List.concat_map
               (fun config ->
                 List.map
                   (fun seed -> { Spec.instance; config; seed; timeout_s })
                   seeds)
               configs)
        else Ok [ { probe with Spec.config = Spec.default_config } ])
      instance_entries
  in
  let jobs = List.concat jobs in
  let* () =
    List.fold_left
      (fun acc job ->
        let* () = acc in
        match Spec.validate job with
        | Ok () -> Ok ()
        | Error e -> err "invalid job (%s): %s" (Spec.describe job) e)
      (Ok ()) jobs
  in
  Ok jobs

let of_string ~known_experiments s =
  match Obs.Json.parse (String.trim s) with
  | Error e -> err "manifest does not parse: %s" e
  | Ok json -> of_json ~known_experiments json

let load ~known_experiments path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | content -> (
      match of_string ~known_experiments content with
      | Ok jobs -> Ok jobs
      | Error e -> err "%s: %s" path e)
