(* The trace/2 codec: the one place the line format of a
   hypartition-trace/2 file is written down.  Four users share it — the
   JSONL sink writes every line through [to_json]; shard absorption
   (Obs.absorb_shard) and the strict loader (Report.load) read every line
   through [of_json]; the [hypartition trace] verb validates through
   Report.load — so a new record type or field is one edit here, and the
   writer and its readers cannot drift apart.

   A file is a [meta] line, then span, provenance and (at close) counter,
   gauge and histogram lines.  trace/2 carries cross-process context:
   optional provenance records, a per-span "trace" id (the fingerprint of
   the engine job the span came from), and shard meta headers
   ("trace"/"parent_span"/"pid") on the per-worker files that are merged
   into the final timeline.

   [of_json] is total: a malformed line is an [Error] naming the field,
   never an exception.  The writer renders a non-finite float as [null],
   so [null] reads back as [nan] wherever a float is expected. *)

let trace_v2 = "hypartition-trace/2"

type attr = Str of string | Int of int | Float of float | Bool of bool

type span = {
  id : int;
  parent : int option;
  name : string;
  path : string;
  depth : int;
  start_ns : int64;
  dur_ns : int64;
  attrs : (string * attr) list;
  trace : string option;
}

type histogram_stat = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_last : float;
}

type record =
  | Meta of {
      trace : string option;
      parent_span : int option;
      pid : int option;
    }
  | Span of span
  | Counter of { name : string; value : int }
  | Gauge of { name : string; value : float }
  | Histogram of { name : string; stat : histogram_stat }
  | Provenance of (string * Json.t) list

let clock = "monotonic_ns"

let json_of_attr = function
  | Str s -> Json.Str s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let if_some key f = function Some v -> [ (key, f v) ] | None -> []

let to_json record =
  let typed ty fields = Json.Obj (("type", Json.Str ty) :: fields) in
  match record with
  | Meta { trace; parent_span; pid } ->
      typed "meta"
        ([ ("schema", Json.Str trace_v2); ("clock", Json.Str clock) ]
        @ if_some "trace" (fun t -> Json.Str t) trace
        @ if_some "parent_span" (fun p -> Json.Int p) parent_span
        @ if_some "pid" (fun p -> Json.Int p) pid)
  | Span s ->
      typed "span"
        ([
           ("id", Json.Int s.id);
           ( "parent",
             match s.parent with Some p -> Json.Int p | None -> Json.Null );
           ("name", Json.Str s.name);
           ("path", Json.Str s.path);
           ("depth", Json.Int s.depth);
           ("start_ns", Json.Int (Int64.to_int s.start_ns));
           ("dur_ns", Json.Int (Int64.to_int s.dur_ns));
           ( "attrs",
             Json.Obj (List.map (fun (k, v) -> (k, json_of_attr v)) s.attrs) );
         ]
        @ if_some "trace" (fun t -> Json.Str t) s.trace)
  | Counter { name; value } ->
      typed "counter" [ ("name", Json.Str name); ("value", Json.Int value) ]
  | Gauge { name; value } ->
      typed "gauge" [ ("name", Json.Str name); ("value", Json.Float value) ]
  | Histogram { name; stat } ->
      typed "histogram"
        [
          ("name", Json.Str name);
          ("count", Json.Int stat.h_count);
          ("sum", Json.Float stat.h_sum);
          ("min", Json.Float stat.h_min);
          ("max", Json.Float stat.h_max);
          ("last", Json.Float stat.h_last);
        ]
  | Provenance fields -> typed "provenance" fields

(* ---- decoding ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let get_float = function Json.Null -> Some Float.nan | v -> Json.get_float v

let attr_of_json = function
  | Json.Str s -> Some (Str s)
  | Json.Int i -> Some (Int i)
  | Json.Float f -> Some (Float f)
  | Json.Null -> Some (Float Float.nan)
  | Json.Bool b -> Some (Bool b)
  | Json.Arr _ | Json.Obj _ -> None

let field j key get =
  match Json.member key j with
  | None -> Error (Printf.sprintf "missing field %S" key)
  | Some v -> (
      match get v with
      | Some x -> Ok x
      | None ->
          Error (Printf.sprintf "field %S is %s" key (Json.to_string v)))

let optional j key get =
  match Json.member key j with
  | None -> Ok None
  | Some _ -> Result.map Option.some (field j key get)

let attrs_of_json = function
  | Json.Obj kvs ->
      List.fold_right
        (fun (k, v) acc ->
          Option.bind acc (fun rest ->
              Option.map (fun a -> (k, a) :: rest) (attr_of_json v)))
        kvs (Some [])
  | _ -> None

let span_of_json j =
  let* id = field j "id" Json.get_int in
  let* parent =
    field j "parent" (function
      | Json.Null -> Some None
      | v -> Option.map Option.some (Json.get_int v))
  in
  let* name = field j "name" Json.get_str in
  let* path = field j "path" Json.get_str in
  let* depth = field j "depth" Json.get_int in
  let* start_ns = field j "start_ns" Json.get_int in
  let* dur_ns = field j "dur_ns" Json.get_int in
  let* attrs = field j "attrs" attrs_of_json in
  let* trace = optional j "trace" Json.get_str in
  if dur_ns < 0 then Error (Printf.sprintf "negative dur_ns %d" dur_ns)
  else
    Ok
      {
        id;
        parent;
        name;
        path;
        depth;
        start_ns = Int64.of_int start_ns;
        dur_ns = Int64.of_int dur_ns;
        attrs;
        trace;
      }

let meta_of_json j =
  let* schema = field j "schema" Json.get_str in
  let* clk = field j "clock" Json.get_str in
  let* trace = optional j "trace" Json.get_str in
  let* parent_span = optional j "parent_span" Json.get_int in
  let* pid = optional j "pid" Json.get_int in
  if schema <> trace_v2 then
    Error
      (Printf.sprintf "unsupported trace schema %S (expected %S)" schema
         trace_v2)
  else if clk <> clock then
    Error (Printf.sprintf "unsupported clock %S (expected %S)" clk clock)
  else Ok (Meta { trace; parent_span; pid })

let histogram_of_json j =
  let* name = field j "name" Json.get_str in
  let* h_count = field j "count" Json.get_int in
  let* h_sum = field j "sum" get_float in
  let* h_min = field j "min" get_float in
  let* h_max = field j "max" get_float in
  let* h_last = field j "last" get_float in
  Ok (Histogram { name; stat = { h_count; h_sum; h_min; h_max; h_last } })

let of_json j =
  match j with
  | Json.Obj fields -> (
      match Json.member "type" j with
      | Some (Json.Str "meta") -> meta_of_json j
      | Some (Json.Str "span") -> Result.map (fun s -> Span s) (span_of_json j)
      | Some (Json.Str "counter") ->
          let* name = field j "name" Json.get_str in
          let* value = field j "value" Json.get_int in
          Ok (Counter { name; value })
      | Some (Json.Str "gauge") ->
          let* name = field j "name" Json.get_str in
          let* value = field j "value" get_float in
          Ok (Gauge { name; value })
      | Some (Json.Str "histogram") -> histogram_of_json j
      | Some (Json.Str "provenance") ->
          Ok (Provenance (List.filter (fun (k, _) -> k <> "type") fields))
      | Some (Json.Str other) ->
          Error (Printf.sprintf "unknown record type %S" other)
      | Some _ | None -> Error "record without a string \"type\"")
  | _ -> Error "record is not a JSON object"

let of_line line = Result.bind (Json.parse line) of_json
