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

let attrs_of_json v =
  Option.bind (Json.get_obj v) (fun kvs ->
      List.fold_right
        (fun (k, v) acc ->
          Option.bind acc (fun rest ->
              Option.map (fun a -> (k, a) :: rest) (attr_of_json v)))
        kvs (Some []))

let span_of_json j =
  let* id = Json.field "id" Json.get_int j in
  let* parent =
    Json.field "parent"
      (function
        | Json.Null -> Some None
        | v -> Option.map Option.some (Json.get_int v))
      j
  in
  let* name = Json.field "name" Json.get_str j in
  let* path = Json.field "path" Json.get_str j in
  let* depth = Json.field "depth" Json.get_int j in
  let* start_ns = Json.field "start_ns" Json.get_int j in
  let* dur_ns = Json.field "dur_ns" Json.get_int j in
  let* attrs = Json.field "attrs" attrs_of_json j in
  let* trace = Json.optional "trace" Json.get_str j in
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
  let* () = Json.schema ~expected:trace_v2 j in
  let* clk = Json.field "clock" Json.get_str j in
  let* trace = Json.optional "trace" Json.get_str j in
  let* parent_span = Json.optional "parent_span" Json.get_int j in
  let* pid = Json.optional "pid" Json.get_int j in
  if clk <> clock then
    Error (Printf.sprintf "unsupported clock %S (expected %S)" clk clock)
  else Ok (Meta { trace; parent_span; pid })

let histogram_of_json j =
  let* name = Json.field "name" Json.get_str j in
  let* h_count = Json.field "count" Json.get_int j in
  let* h_sum = Json.field "sum" get_float j in
  let* h_min = Json.field "min" get_float j in
  let* h_max = Json.field "max" get_float j in
  let* h_last = Json.field "last" get_float j in
  Ok (Histogram { name; stat = { h_count; h_sum; h_min; h_max; h_last } })

let of_json j =
  let* fields =
    Option.to_result ~none:"record is not a JSON object" (Json.get_obj j)
  in
  let* ty = Json.field "type" Json.get_str j in
  match ty with
  | "meta" -> meta_of_json j
  | "span" -> Result.map (fun s -> Span s) (span_of_json j)
  | "counter" ->
      let* name = Json.field "name" Json.get_str j in
      let* value = Json.field "value" Json.get_int j in
      Ok (Counter { name; value })
  | "gauge" ->
      let* name = Json.field "name" Json.get_str j in
      let* value = Json.field "value" get_float j in
      Ok (Gauge { name; value })
  | "histogram" -> histogram_of_json j
  | "provenance" ->
      Ok (Provenance (List.filter (fun (k, _) -> k <> "type") fields))
  | other -> Error (Printf.sprintf "unknown record type %S" other)

let of_line line = Result.bind (Json.parse line) of_json
