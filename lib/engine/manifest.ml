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

let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let opt_member name json = Obs.Json.member name json

let get_float_opt name json = Option.bind (opt_member name json) Obs.Json.get_float
let get_int_opt name json = Option.bind (opt_member name json) Obs.Json.get_int
let get_str_opt name json = Option.bind (opt_member name json) Obs.Json.get_str

let enum_opt assoc ~what name json =
  match get_str_opt name json with
  | None -> Ok None
  | Some s -> (
      match List.assoc_opt s assoc with
      | Some v -> Ok (Some v)
      | None ->
          err "unknown %s %S (valid: %s)" what s
            (String.concat ", " (List.map fst assoc)))

(* A config overlay: defaults overridden by whichever fields an entry
   carries. *)
let config_overlay ~(base : Spec.config) json =
  let* algorithm = enum_opt Spec.algorithms ~what:"algorithm" "algorithm" json in
  let* metric = enum_opt Spec.metrics ~what:"metric" "metric" json in
  Ok
    {
      Spec.k = Option.value ~default:base.Spec.k (get_int_opt "k" json);
      eps = Option.value ~default:base.Spec.eps (get_float_opt "eps" json);
      algorithm = Option.value ~default:base.Spec.algorithm algorithm;
      metric = Option.value ~default:base.Spec.metric metric;
    }

let instance_of_entry ~known_experiments json =
  match json with
  | Obs.Json.Obj _ -> (
      match get_str_opt "file" json with
      | Some path -> Ok (Spec.Hmetis_file path)
      | None -> (
          match get_str_opt "dag" json with
          | Some path -> Ok (Spec.Dag_file path)
          | None -> (
              match get_str_opt "generate" json with
              | Some kind_name -> (
                  match List.assoc_opt kind_name Spec.gen_kinds with
                  | None ->
                      err "unknown generator %S (valid: %s)" kind_name
                        (String.concat ", " (List.map fst Spec.gen_kinds))
                  | Some kind -> (
                      match get_int_opt "n" json with
                      | Some n -> Ok (Spec.Generated { kind; n })
                      | None -> err "generator entry needs an integer \"n\""))
              | None -> (
                  match get_str_opt "experiment" json with
                  | Some id ->
                      if List.mem id known_experiments then
                        Ok (Spec.Experiment id)
                      else
                        err "unknown experiment %S (valid: %s)" id
                          (String.concat " " known_experiments)
                  | None -> (
                      match get_float_opt "spin" json with
                      | Some s -> Ok (Spec.Spin s)
                      | None -> (
                          match get_int_opt "crash" json with
                          | Some c -> Ok (Spec.Crash c)
                          | None ->
                              err
                                "instance entry needs one of \"file\", \
                                 \"dag\", \"generate\", \"experiment\", \
                                 \"spin\", \"crash\""))))))
  | _ -> err "instance entry is not an object"

let of_json ~known_experiments json =
  let* () =
    match get_str_opt "schema" json with
    | Some s when String.equal s schema_version -> Ok ()
    | Some s -> err "unsupported manifest schema %S (expected %S)" s schema_version
    | None -> err "manifest without schema tag (expected %S)" schema_version
  in
  let defaults_json =
    Option.value ~default:(Obs.Json.Obj []) (opt_member "defaults" json)
  in
  let* default_config =
    config_overlay ~base:Spec.default_config defaults_json
  in
  let default_timeout = get_float_opt "timeout_s" defaults_json in
  let default_seed = Option.value ~default:1 (get_int_opt "seed" defaults_json) in
  let* instance_entries =
    match opt_member "instances" json with
    | Some (Obs.Json.Arr (_ :: _ as l)) -> Ok l
    | Some (Obs.Json.Arr []) -> err "manifest has an empty \"instances\" array"
    | _ -> err "manifest needs a non-empty \"instances\" array"
  in
  let* configs =
    match opt_member "configs" json with
    | None -> Ok [ default_config ]
    | Some (Obs.Json.Arr l) ->
        List.fold_left
          (fun acc entry ->
            let* acc = acc in
            let* c = config_overlay ~base:default_config entry in
            Ok (c :: acc))
          (Ok []) l
        |> Result.map List.rev
    | Some _ -> err "manifest field \"configs\" is not an array"
  in
  let* seeds =
    match opt_member "seeds" json with
    | None -> Ok [ default_seed ]
    | Some (Obs.Json.Arr l) ->
        List.fold_left
          (fun acc entry ->
            let* acc = acc in
            match Obs.Json.get_int entry with
            | Some s -> Ok (s :: acc)
            | None -> err "manifest field \"seeds\" must hold integers")
          (Ok []) l
        |> Result.map List.rev
    | Some _ -> err "manifest field \"seeds\" is not an array"
  in
  let* jobs =
    List.fold_left
      (fun acc entry ->
        let* acc = acc in
        let* instance = instance_of_entry ~known_experiments entry in
        let timeout_s =
          match get_float_opt "timeout_s" entry with
          | Some t -> Some t
          | None -> default_timeout
        in
        let expanded =
          let probe =
            { Spec.instance; config = default_config; seed = 0; timeout_s }
          in
          if Spec.config_sensitive probe then
            List.concat_map
              (fun config ->
                List.map
                  (fun seed -> { Spec.instance; config; seed; timeout_s })
                  seeds)
              configs
          else [ { probe with Spec.config = Spec.default_config } ]
        in
        Ok (List.rev_append expanded acc))
      (Ok []) instance_entries
    |> Result.map List.rev
  in
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
