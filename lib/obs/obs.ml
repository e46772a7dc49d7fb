(* Structured observability: monotonic spans, metrics, pluggable sinks,
   and — since trace/2 — cross-process trace context.

   Design constraints, in order:
   1. disabled instrumentation must cost ~nothing on the FM hot path — a
      couple of loads and a branch, and zero allocation;
   2. no external dependencies (the clock comes from Support.Util);
   3. machine-readable output (JSONL trace, metric snapshots) so result
      records, reports and CI can consume what humans see in the summary
      tree.

   Cross-process model: the coordinator owns the trace file; each forked
   worker writes its own shard (`<trace>.worker.<pid>.jsonl`) carrying the
   trace id (the job fingerprint) and the coordinator-side parent span id
   in its meta header.  The coordinator absorbs shards with
   {!absorb_shard}, renumbering span ids from its own counter and
   re-rooting shard roots under the still-open parent span, so the merged
   file is one consistent timeline.  Within each process the library
   stays single-threaded, like the solvers. *)

type attr = Str of string | Int of int | Float of float | Bool of bool

module Json = Json

let trace_schema_version = Schema.trace_v2

let now_ns = Support.Util.monotonic_ns

(* ------------------------------------------------------------------ *)
(* Metrics registries *)

type counter = { mutable c_value : int }
type gauge = { mutable g_value : float; mutable g_set : bool }

type histogram = {
  mutable hg_count : int;
  mutable hg_sum : float;
  mutable hg_min : float;
  mutable hg_max : float;
  mutable hg_last : float;
}

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16

let counter_handle name =
  match Hashtbl.find_opt counters_tbl name with
  | Some c -> c
  | None ->
      let c = { c_value = 0 } in
      Hashtbl.add counters_tbl name c;
      c

let gauge_handle name =
  match Hashtbl.find_opt gauges_tbl name with
  | Some g -> g
  | None ->
      let g = { g_value = 0.0; g_set = false } in
      Hashtbl.add gauges_tbl name g;
      g

let histogram_handle name =
  match Hashtbl.find_opt histograms_tbl name with
  | Some h -> h
  | None ->
      let h =
        { hg_count = 0; hg_sum = 0.0; hg_min = 0.0; hg_max = 0.0; hg_last = 0.0 }
      in
      Hashtbl.add histograms_tbl name h;
      h

(* ------------------------------------------------------------------ *)
(* Span stack and rollup *)

type finished_span = {
  fs_id : int;
  fs_parent : int; (* -1 for roots *)
  fs_name : string;
  fs_path : string; (* "/"-joined names from the root *)
  fs_depth : int;
  fs_start_ns : int64;
  fs_dur_ns : int64;
  fs_attrs : (string * attr) list; (* in insertion order *)
  fs_trace : string option; (* trace id — the engine job fingerprint *)
}

type frame = {
  f_id : int;
  f_name : string;
  f_path : string;
  f_depth : int;
  f_start_ns : int64;
  mutable f_attrs : (string * attr) list; (* reversed *)
}

type agg = {
  mutable a_count : int;
  mutable a_total_ns : int64;
  mutable a_min_ns : int64;
  mutable a_max_ns : int64;
}

type sink = {
  on_span : finished_span -> unit;
  on_record : Json.t -> unit; (* raw JSONL records, e.g. provenance *)
  on_close : unit -> unit;
}

let enabled_flag = ref false
let initialized = ref false
let sinks : sink list ref = ref []
let summary_at_close = ref false
let stack : frame list ref = ref []
let next_span_id = ref 1
let rollup : (string, agg) Hashtbl.t = Hashtbl.create 64
let exit_hook = ref false
let trace_path : string option ref = ref None
let current_trace : string option ref = ref None

let trace_file () = !trace_path

let current_span_id () =
  match !stack with [] -> None | top :: _ -> Some top.f_id

let note_rollup path dur =
  match Hashtbl.find_opt rollup path with
  | Some a ->
      a.a_count <- a.a_count + 1;
      a.a_total_ns <- Int64.add a.a_total_ns dur;
      if Int64.compare dur a.a_min_ns < 0 then a.a_min_ns <- dur;
      if Int64.compare dur a.a_max_ns > 0 then a.a_max_ns <- dur
  | None ->
      Hashtbl.add rollup path
        { a_count = 1; a_total_ns = dur; a_min_ns = dur; a_max_ns = dur }

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type histogram_stat = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_last : float;
}

type span_stat = {
  s_path : string;
  s_count : int;
  s_total_ns : int64;
  s_min_ns : int64;
  s_max_ns : int64;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_stat) list;
  spans : span_stat list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  let counters =
    Hashtbl.fold
      (fun name c acc -> if c.c_value <> 0 then (name, c.c_value) :: acc else acc)
      counters_tbl []
    |> List.sort by_name
  in
  let gauges =
    Hashtbl.fold
      (fun name g acc -> if g.g_set then (name, g.g_value) :: acc else acc)
      gauges_tbl []
    |> List.sort by_name
  in
  let histograms =
    Hashtbl.fold
      (fun name h acc ->
        if h.hg_count > 0 then
          ( name,
            {
              h_count = h.hg_count;
              h_sum = h.hg_sum;
              h_min = h.hg_min;
              h_max = h.hg_max;
              h_last = h.hg_last;
            } )
          :: acc
        else acc)
      histograms_tbl []
    |> List.sort by_name
  in
  let spans =
    Hashtbl.fold
      (fun path a acc ->
        {
          s_path = path;
          s_count = a.a_count;
          s_total_ns = a.a_total_ns;
          s_min_ns = a.a_min_ns;
          s_max_ns = a.a_max_ns;
        }
        :: acc)
      rollup []
    |> List.sort (fun a b -> String.compare a.s_path b.s_path)
  in
  { counters; gauges; histograms; spans }

let reset_stats () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters_tbl;
  Hashtbl.iter (fun _ g -> g.g_set <- false) gauges_tbl;
  Hashtbl.iter
    (fun _ h ->
      h.hg_count <- 0;
      h.hg_sum <- 0.0)
    histograms_tbl;
  Hashtbl.reset rollup

(* ------------------------------------------------------------------ *)
(* GC profiling *)

(* The whole repo funnels its Gc usage through here (lint rule SRC10):
   lib/obs is the designated telemetry sink, so profiling stays one
   coherent surface instead of ad-hoc Gc.stat calls in solvers. *)

let prof_on = ref false
let prof_alarm : Gc.alarm option ref = ref None

let g_minor_collections = gauge_handle "gc.minor_collections"
let g_major_collections = gauge_handle "gc.major_collections"
let g_compactions = gauge_handle "gc.compactions"
let g_heap_words = gauge_handle "gc.heap_words"
let g_top_heap_words = gauge_handle "gc.top_heap_words"
let g_minor_words = gauge_handle "gc.minor_words"
let g_promoted_words = gauge_handle "gc.promoted_words"
let g_major_words = gauge_handle "gc.major_words"

let prof_set g v =
  g.g_value <- v;
  g.g_set <- true

let prof_sample_now () =
  let s = Gc.quick_stat () in
  prof_set g_minor_collections (float_of_int s.Gc.minor_collections);
  prof_set g_major_collections (float_of_int s.Gc.major_collections);
  prof_set g_compactions (float_of_int s.Gc.compactions);
  prof_set g_heap_words (float_of_int s.Gc.heap_words);
  prof_set g_top_heap_words (float_of_int s.Gc.top_heap_words);
  prof_set g_minor_words s.Gc.minor_words;
  prof_set g_promoted_words s.Gc.promoted_words;
  prof_set g_major_words s.Gc.major_words

let prof_sample () = if !prof_on && !enabled_flag then prof_sample_now ()

let prof_start_alarm () =
  match !prof_alarm with
  | Some _ -> ()
  | None -> prof_alarm := Some (Gc.create_alarm prof_sample)

let prof_stop_alarm () =
  match !prof_alarm with
  | Some a ->
      Gc.delete_alarm a;
      prof_alarm := None
  | None -> ()

let init_prof_from_env () =
  match Sys.getenv_opt "HYPARTITION_PROF" with
  | Some ("1" | "on" | "sample") -> prof_on := true
  | Some "alarm" ->
      prof_on := true;
      prof_start_alarm ()
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Summary rendering *)

let pp_ns ppf ns =
  let f = Int64.to_float ns in
  if f >= 1e9 then Fmt.pf ppf "%8.2f s " (f /. 1e9)
  else if f >= 1e6 then Fmt.pf ppf "%8.2f ms" (f /. 1e6)
  else if f >= 1e3 then Fmt.pf ppf "%8.2f us" (f /. 1e3)
  else Fmt.pf ppf "%8.0f ns" f

let print_summary ppf =
  let snap = snapshot () in
  if snap.spans <> [] then begin
    Fmt.pf ppf "== span tree (aggregated by path) ==@.";
    Fmt.pf ppf "%-44s %8s %10s %10s@." "span" "count" "total" "mean";
    List.iter
      (fun s ->
        let depth =
          String.fold_left (fun d c -> if c = '/' then d + 1 else d) 0 s.s_path
        in
        let name =
          match String.rindex_opt s.s_path '/' with
          | Some i -> String.sub s.s_path (i + 1) (String.length s.s_path - i - 1)
          | None -> s.s_path
        in
        let mean_ns =
          if s.s_count = 0 then 0L
          else Int64.div s.s_total_ns (Int64.of_int s.s_count)
        in
        Fmt.pf ppf "%-44s %8d %a %a@."
          (String.make (2 * depth) ' ' ^ name)
          s.s_count pp_ns s.s_total_ns pp_ns mean_ns)
      snap.spans
  end;
  if snap.counters <> [] then begin
    Fmt.pf ppf "== counters ==@.";
    List.iter (fun (name, v) -> Fmt.pf ppf "%-44s %12d@." name v) snap.counters
  end;
  if snap.gauges <> [] then begin
    Fmt.pf ppf "== gauges ==@.";
    List.iter (fun (name, v) -> Fmt.pf ppf "%-44s %12g@." name v) snap.gauges
  end;
  if snap.histograms <> [] then begin
    Fmt.pf ppf "== histograms ==@.";
    List.iter
      (fun (name, h) ->
        Fmt.pf ppf "%-44s n=%-8d mean=%-12g min=%-12g max=%-12g last=%g@." name
          h.h_count
          (h.h_sum /. float_of_int h.h_count)
          h.h_min h.h_max h.h_last)
      snap.histograms
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let close () =
  List.iter (fun s -> s.on_close ()) !sinks;
  sinks := [];
  trace_path := None;
  current_trace := None;
  if !summary_at_close then begin
    summary_at_close := false;
    print_summary Fmt.stderr
  end

let register_exit_hook () =
  if not !exit_hook then begin
    exit_hook := true;
    at_exit close
  end

let json_of_attr = function
  | Str s -> Json.Str s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let jsonl_sink ?(meta_extra = []) oc =
  let line json =
    output_string oc (Json.to_string json);
    output_char oc '\n'
  in
  line
    (Json.Obj
       ([
          ("type", Json.Str "meta");
          ("schema", Json.Str trace_schema_version);
          ("clock", Json.Str "monotonic_ns");
        ]
       @ meta_extra));
  let on_span fs =
    line
      (Json.Obj
         ([
            ("type", Json.Str "span");
            ("id", Json.Int fs.fs_id);
            ( "parent",
              if fs.fs_parent < 0 then Json.Null else Json.Int fs.fs_parent );
            ("name", Json.Str fs.fs_name);
            ("path", Json.Str fs.fs_path);
            ("depth", Json.Int fs.fs_depth);
            ("start_ns", Json.Int (Int64.to_int fs.fs_start_ns));
            ("dur_ns", Json.Int (Int64.to_int fs.fs_dur_ns));
            ( "attrs",
              Json.Obj
                (List.map (fun (k, v) -> (k, json_of_attr v)) fs.fs_attrs) );
          ]
         @
         match fs.fs_trace with
         | Some t -> [ ("trace", Json.Str t) ]
         | None -> []))
  in
  let on_record json = line json in
  let on_close () =
    let snap = snapshot () in
    List.iter
      (fun (name, v) ->
        line
          (Json.Obj
             [
               ("type", Json.Str "counter");
               ("name", Json.Str name);
               ("value", Json.Int v);
             ]))
      snap.counters;
    List.iter
      (fun (name, v) ->
        line
          (Json.Obj
             [
               ("type", Json.Str "gauge");
               ("name", Json.Str name);
               ("value", Json.Float v);
             ]))
      snap.gauges;
    List.iter
      (fun (name, h) ->
        line
          (Json.Obj
             [
               ("type", Json.Str "histogram");
               ("name", Json.Str name);
               ("count", Json.Int h.h_count);
               ("sum", Json.Float h.h_sum);
               ("min", Json.Float h.h_min);
               ("max", Json.Float h.h_max);
               ("last", Json.Float h.h_last);
             ]))
      snap.histograms;
    flush oc;
    close_out_noerr oc
  in
  { on_span; on_record; on_close }

let enable_trace path =
  let oc = open_out path in
  sinks := jsonl_sink oc :: !sinks;
  trace_path := Some path;
  enabled_flag := true;
  register_exit_hook ()

let enable_trace_shard ~trace_id ?parent_span ~pid path =
  let oc = open_out path in
  let meta_extra =
    [ ("trace", Json.Str trace_id) ]
    @ (match parent_span with
      | Some id -> [ ("parent_span", Json.Int id) ]
      | None -> [])
    @ [ ("pid", Json.Int pid) ]
  in
  sinks := jsonl_sink ~meta_extra oc :: !sinks;
  trace_path := Some path;
  current_trace := Some trace_id;
  enabled_flag := true;
  (* Forked workers reset the registry before attaching their shard, so
     the lazy env init already ran (and was wiped): re-arm profiling. *)
  init_prof_from_env ()

let enable_summary () =
  summary_at_close := true;
  enabled_flag := true;
  register_exit_hook ()

let init_from_env () =
  (match Sys.getenv_opt "HYPARTITION_TRACE" with
  | Some path when path <> "" -> enable_trace path
  | _ -> ());
  init_prof_from_env ();
  match Sys.getenv_opt "HYPARTITION_OBS" with
  | Some ("summary" | "1" | "on") -> enable_summary ()
  | _ -> ()

(* Worker domains see an inert library: the registries, the span stack
   and the sink list are plain single-domain state, so every entry point
   guards on [enabled ()] and [enabled ()] itself answers [false] off
   the main domain.  The multilevel portfolio's pool tasks rely on this
   — they run instrumented code (Refine) verbatim, and all their
   emissions off the main domain vanish instead of racing; measurements
   that must survive travel through Solvers.Fm_stats accumulators and
   are committed on the main domain at the join barrier.  The guard also
   keeps the lazy env init single-domain. *)
let enabled () =
  Domain.is_main_domain ()
  && begin
       if not !initialized then begin
         initialized := true;
         init_from_env ()
       end;
       !enabled_flag
     end

let set_enabled b =
  ignore (enabled ());
  enabled_flag := b

let reset_for_tests () =
  initialized := true;
  enabled_flag := false;
  sinks := [];
  summary_at_close := false;
  stack := [];
  next_span_id := 1;
  trace_path := None;
  current_trace := None;
  prof_on := false;
  prof_stop_alarm ();
  (* Zero the registries rather than dropping them: module-level handles
     (solver counters, the gc.* gauges) are interned once at program
     start, and a forked worker resets right after the fork — dropping
     the tables would orphan every handle and silently discard the
     worker's metrics. *)
  reset_stats ()

(* ------------------------------------------------------------------ *)
(* Provenance *)

let emit_provenance fields =
  if !sinks <> [] then begin
    let record = Json.Obj (("type", Json.Str "provenance") :: fields) in
    List.iter (fun s -> s.on_record record) !sinks
  end

(* ------------------------------------------------------------------ *)
(* Spans *)

module Span = struct
  let begin_span attrs name =
    let parent_path, depth =
      match !stack with
      | [] -> ("", 0)
      | top :: _ -> (top.f_path ^ "/", top.f_depth + 1)
    in
    let frame =
      {
        f_id = !next_span_id;
        f_name = name;
        f_path = parent_path ^ name;
        f_depth = depth;
        f_start_ns = now_ns ();
        f_attrs = List.rev attrs;
      }
    in
    incr next_span_id;
    stack := frame :: !stack

  let end_span () =
    match !stack with
    | [] -> () (* stack was reset mid-span; nothing to finish *)
    | frame :: rest ->
        stack := rest;
        let dur = Int64.sub (now_ns ()) frame.f_start_ns in
        let dur = if Int64.compare dur 0L < 0 then 0L else dur in
        note_rollup frame.f_path dur;
        if !sinks <> [] then begin
          let parent =
            match rest with [] -> -1 | top :: _ -> top.f_id
          in
          let fs =
            {
              fs_id = frame.f_id;
              fs_parent = parent;
              fs_name = frame.f_name;
              fs_path = frame.f_path;
              fs_depth = frame.f_depth;
              fs_start_ns = frame.f_start_ns;
              fs_dur_ns = dur;
              fs_attrs = List.rev frame.f_attrs;
              fs_trace = !current_trace;
            }
          in
          List.iter (fun s -> s.on_span fs) !sinks
        end;
        (* Root boundary: a top-level unit of work just finished — record
           the GC state it left behind (gauges land in the close lines). *)
        if rest = [] then prof_sample ()

  let with_ ?(attrs = []) name f =
    if not (enabled ()) then f ()
    else begin
      begin_span attrs name;
      Fun.protect ~finally:end_span f
    end

  let attr key value =
    if enabled () then
      match !stack with
      | [] -> ()
      | frame :: _ -> frame.f_attrs <- (key, value) :: frame.f_attrs

  let timed ?attrs name f =
    let t0 = now_ns () in
    let result = with_ ?attrs name f in
    (result, Support.Util.seconds_of_ns (Int64.sub (now_ns ()) t0))
end

(* ------------------------------------------------------------------ *)
(* Manual (retroactive) spans *)

module Manual = struct
  type handle = { m_id : int; m_path : string; m_depth : int }

  (* Spans with explicit timing and parentage, emitted after the fact.
     {!Span.with_} ties span extent to dynamic extent, which a
     single-threaded server interleaving many requests cannot use: the
     queue-wait of request A overlaps the solve of request B on one
     stack.  The serve daemon instead measures each request's stages
     itself and emits the finished tree (request → queue-wait → solve →
     respond) at respond time, through here — same sinks, same rollup,
     same trace/2 record shape, so validation and report analytics are
     none the wiser.  Ids come from the shared counter; parentage is the
     returned handle, so child depth/path invariants hold by
     construction. *)
  let span ?trace ?parent ?(attrs = []) ~name ~start_ns ~dur_ns () =
    if not (enabled ()) then None
    else begin
      let parent_id, path, depth =
        match parent with
        | None -> (-1, name, 0)
        | Some p -> (p.m_id, p.m_path ^ "/" ^ name, p.m_depth + 1)
      in
      let id = !next_span_id in
      incr next_span_id;
      let dur = if Int64.compare dur_ns 0L < 0 then 0L else dur_ns in
      note_rollup path dur;
      if !sinks <> [] then begin
        let fs =
          {
            fs_id = id;
            fs_parent = parent_id;
            fs_name = name;
            fs_path = path;
            fs_depth = depth;
            fs_start_ns = start_ns;
            fs_dur_ns = dur;
            fs_attrs = attrs;
            fs_trace = (match trace with Some _ as t -> t | None -> !current_trace);
          }
        in
        List.iter (fun s -> s.on_span fs) !sinks
      end;
      Some { m_id = id; m_path = path; m_depth = depth }
    end
end

(* ------------------------------------------------------------------ *)
(* Shard absorption *)

let attr_of_json = function
  | Json.Str s -> Str s
  | Json.Int i -> Int i
  | Json.Float f -> Float f
  | Json.Bool b -> Bool b
  | v -> Str (Json.to_string v)

type shard_span = {
  sh_id : int;
  sh_parent : int option;
  sh_name : string;
  sh_path : string;
  sh_depth : int;
  sh_start_ns : int64;
  sh_dur_ns : int64;
  sh_attrs : (string * attr) list;
  sh_trace : string option;
}

let shard_span_of_json j =
  let field name get = Option.bind (Json.member name j) get in
  match
    ( field "id" Json.get_int,
      field "name" Json.get_str,
      field "path" Json.get_str,
      field "depth" Json.get_int,
      field "start_ns" Json.get_int,
      field "dur_ns" Json.get_int )
  with
  | Some id, Some name, Some path, Some depth, Some start_ns, Some dur_ns ->
      let parent =
        match Json.member "parent" j with
        | Some p -> Json.get_int p
        | None -> None
      in
      let attrs =
        match Json.member "attrs" j with
        | Some (Json.Obj kvs) ->
            List.map (fun (k, v) -> (k, attr_of_json v)) kvs
        | _ -> []
      in
      Some
        {
          sh_id = id;
          sh_parent = parent;
          sh_name = name;
          sh_path = path;
          sh_depth = depth;
          sh_start_ns = Int64.of_int start_ns;
          sh_dur_ns = Int64.of_int dur_ns;
          sh_attrs = attrs;
          sh_trace = field "trace" Json.get_str;
        }
  | _ -> None

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in_noerr ic;
            List.rev acc
      in
      go []

let absorb_shard ?parent path =
  let records =
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else
          (* Killed workers leave partial shards: a torn final line is
             expected, not an error. *)
          match Json.parse line with Ok v -> Some v | Error _ -> None)
      (read_lines path)
  in
  let typ j = Option.bind (Json.member "type" j) Json.get_str in
  let meta = List.find_opt (fun j -> typ j = Some "meta") records in
  let meta_field name get =
    Option.bind meta (fun m -> Option.bind (Json.member name m) get)
  in
  let meta_trace = meta_field "trace" Json.get_str in
  let meta_parent = meta_field "parent_span" Json.get_int in
  let spans =
    List.filter_map
      (fun j -> if typ j = Some "span" then shard_span_of_json j else None)
      records
  in
  (* A span is kept only if its whole parent chain resolves within the
     shard: enclosing spans of a killed worker never closed, so their
     descendants are orphans and are dropped rather than re-rooted. *)
  let by_id : (int, shard_span) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.sh_id s) spans;
  let resolved : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let rec resolves id =
    match Hashtbl.find_opt resolved id with
    | Some r -> r
    | None ->
        Hashtbl.replace resolved id false;
        let r =
          match Hashtbl.find_opt by_id id with
          | None -> false
          | Some s -> (
              match s.sh_parent with None -> true | Some p -> resolves p)
        in
        Hashtbl.replace resolved id r;
        r
  in
  let kept = List.filter (fun s -> resolves s.sh_id) spans in
  let rb_parent, rb_path, rb_depth =
    match parent with
    (* Caller-chosen parent (a manual span): the serve daemon absorbs a
       worker's shard under that request's solve span, overriding the
       fork-time meta parent (no request span was open at fork). *)
    | Some (h : Manual.handle) ->
        (h.Manual.m_id, h.Manual.m_path ^ "/", h.Manual.m_depth + 1)
    | None -> (
        match
          Option.bind meta_parent (fun pid ->
              List.find_opt (fun f -> f.f_id = pid) !stack)
        with
        | Some f -> (f.f_id, f.f_path ^ "/", f.f_depth + 1)
        | None -> (-1, "", 0))
  in
  let id_map : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace id_map s.sh_id !next_span_id;
      incr next_span_id)
    kept;
  List.iter
    (fun s ->
      let fs =
        {
          fs_id = Hashtbl.find id_map s.sh_id;
          fs_parent =
            (match s.sh_parent with
            | None -> rb_parent
            | Some p -> Hashtbl.find id_map p);
          fs_name = s.sh_name;
          fs_path = rb_path ^ s.sh_path;
          fs_depth = s.sh_depth + rb_depth;
          fs_start_ns = s.sh_start_ns;
          fs_dur_ns = s.sh_dur_ns;
          fs_attrs = s.sh_attrs;
          fs_trace = (match s.sh_trace with Some _ as t -> t | None -> meta_trace);
        }
      in
      note_rollup fs.fs_path fs.fs_dur_ns;
      List.iter (fun snk -> snk.on_span fs) !sinks)
    kept;
  (* Fold the worker's close-time metric lines into the coordinator's
     registries: counters add, gauges overwrite, histograms merge. *)
  List.iter
    (fun j ->
      let field name get = Option.bind (Json.member name j) get in
      match typ j with
      | Some "counter" -> (
          match (field "name" Json.get_str, field "value" Json.get_int) with
          | Some name, Some v ->
              let c = counter_handle name in
              c.c_value <- c.c_value + v
          | _ -> ())
      | Some "gauge" -> (
          match (field "name" Json.get_str, field "value" Json.get_float) with
          | Some name, Some v ->
              let g = gauge_handle name in
              g.g_value <- v;
              g.g_set <- true
          | _ -> ())
      | Some "histogram" -> (
          match
            ( field "name" Json.get_str,
              field "count" Json.get_int,
              field "sum" Json.get_float,
              field "min" Json.get_float,
              field "max" Json.get_float,
              field "last" Json.get_float )
          with
          | Some name, Some count, Some sum, Some mn, Some mx, Some last
            when count > 0 ->
              let h = histogram_handle name in
              if h.hg_count = 0 then begin
                h.hg_min <- mn;
                h.hg_max <- mx
              end
              else begin
                if mn < h.hg_min then h.hg_min <- mn;
                if mx > h.hg_max then h.hg_max <- mx
              end;
              h.hg_count <- h.hg_count + count;
              h.hg_sum <- h.hg_sum +. sum;
              h.hg_last <- last
          | _ -> ())
      | _ -> ())
    records;
  List.length kept

(* ------------------------------------------------------------------ *)
(* Metrics *)

module Counter = struct
  type t = counter

  let make = counter_handle
  let incr c = if enabled () then c.c_value <- c.c_value + 1
  let add c n = if enabled () then c.c_value <- c.c_value + n
  let value c = c.c_value
end

module Gauge = struct
  type t = gauge

  let make = gauge_handle

  let set g v =
    if enabled () then begin
      g.g_value <- v;
      g.g_set <- true
    end
end

module Histogram = struct
  type t = histogram

  let make = histogram_handle

  let observe h v =
    if enabled () then begin
      if h.hg_count = 0 then begin
        h.hg_min <- v;
        h.hg_max <- v
      end
      else begin
        if v < h.hg_min then h.hg_min <- v;
        if v > h.hg_max then h.hg_max <- v
      end;
      h.hg_count <- h.hg_count + 1;
      h.hg_sum <- h.hg_sum +. v;
      h.hg_last <- v
    end

  let observe_int h v = observe h (float_of_int v)

  (* Fold an already-aggregated batch of observations into the
     histogram — the same merge [absorb_shard] applies to worker-process
     shards, exposed for worker-domain accumulators (Solvers.Fm_stats)
     that batch on their own domain and commit at a join barrier.
     [last] should be the batch's final observation; committing batches
     in worker-index order keeps it deterministic. *)
  let merge h ~count ~sum ~min ~max ~last =
    if count > 0 && enabled () then begin
      if h.hg_count = 0 then begin
        h.hg_min <- min;
        h.hg_max <- max
      end
      else begin
        if min < h.hg_min then h.hg_min <- min;
        if max > h.hg_max then h.hg_max <- max
      end;
      h.hg_count <- h.hg_count + count;
      h.hg_sum <- h.hg_sum +. sum;
      h.hg_last <- last
    end
end

(* ------------------------------------------------------------------ *)
(* Profiling surface *)

module Prof = struct
  let enabled () = !prof_on

  let set_enabled b =
    prof_on := b;
    if not b then prof_stop_alarm ()

  let sample () = prof_sample ()

  let allocated_words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
end

module Report = Report
