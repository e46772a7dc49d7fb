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

type attr = Schema.attr =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

module Json = Json
module Schema = Schema

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

type sink = { write : Schema.record -> unit; on_close : unit -> unit }

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

type histogram_stat = Schema.histogram_stat = {
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

let init_prof_from_env () =
  match Sys.getenv_opt "HYPARTITION_PROF" with
  | Some ("1" | "on" | "sample") -> prof_on := true
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Summary rendering *)

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
          s.s_count Report.pp_ns s.s_total_ns Report.pp_ns mean_ns)
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

let no_context = Schema.Meta { trace = None; parent_span = None; pid = None }

let jsonl_sink ?(meta = no_context) oc =
  let write record =
    output_string oc (Json.to_string (Schema.to_json record));
    output_char oc '\n'
  in
  write meta;
  let on_close () =
    let snap = snapshot () in
    List.iter (fun (name, value) -> write (Schema.Counter { name; value }))
      snap.counters;
    List.iter (fun (name, value) -> write (Schema.Gauge { name; value }))
      snap.gauges;
    List.iter (fun (name, stat) -> write (Schema.Histogram { name; stat }))
      snap.histograms;
    flush oc;
    close_out_noerr oc
  in
  { write; on_close }

let enable_trace path =
  let oc = open_out path in
  sinks := jsonl_sink oc :: !sinks;
  trace_path := Some path;
  enabled_flag := true;
  register_exit_hook ()

let enable_trace_shard ~trace_id ?parent_span ~pid path =
  let oc = open_out path in
  let meta =
    Schema.Meta { trace = Some trace_id; parent_span; pid = Some pid }
  in
  sinks := jsonl_sink ~meta oc :: !sinks;
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
   the main domain.  The multilevel portfolio's map tasks rely on this
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
  (* Zero the registries rather than dropping them: module-level handles
     (solver counters, the gc.* gauges) are interned once at program
     start, and a forked worker resets right after the fork — dropping
     the tables would orphan every handle and silently discard the
     worker's metrics. *)
  reset_stats ()

(* ------------------------------------------------------------------ *)
(* Provenance *)

let emit_provenance fields =
  List.iter (fun s -> s.write (Schema.Provenance fields)) !sinks

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
          let span =
            {
              Schema.id = frame.f_id;
              parent = (match rest with [] -> None | top :: _ -> Some top.f_id);
              name = frame.f_name;
              path = frame.f_path;
              depth = frame.f_depth;
              start_ns = frame.f_start_ns;
              dur_ns = dur;
              attrs = List.rev frame.f_attrs;
              trace = !current_trace;
            }
          in
          List.iter (fun s -> s.write (Schema.Span span)) !sinks
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
        | None -> (None, name, 0)
        | Some p -> (Some p.m_id, p.m_path ^ "/" ^ name, p.m_depth + 1)
      in
      let id = !next_span_id in
      incr next_span_id;
      let dur = if Int64.compare dur_ns 0L < 0 then 0L else dur_ns in
      note_rollup path dur;
      if !sinks <> [] then begin
        let span =
          {
            Schema.id;
            parent = parent_id;
            name;
            path;
            depth;
            start_ns;
            dur_ns = dur;
            attrs;
            trace = (match trace with Some _ as t -> t | None -> !current_trace);
          }
        in
        List.iter (fun s -> s.write (Schema.Span span)) !sinks
      end;
      Some { m_id = id; m_path = path; m_depth = depth }
    end
end

(* ------------------------------------------------------------------ *)
(* Shard absorption *)

(* Fold an aggregated batch of observations into a histogram: shard
   absorption and {!Histogram.merge} share it. *)
let merge_histogram h (stat : histogram_stat) =
  if h.hg_count = 0 then begin
    h.hg_min <- stat.h_min;
    h.hg_max <- stat.h_max
  end
  else begin
    if stat.h_min < h.hg_min then h.hg_min <- stat.h_min;
    if stat.h_max > h.hg_max then h.hg_max <- stat.h_max
  end;
  h.hg_count <- h.hg_count + stat.h_count;
  h.hg_sum <- h.hg_sum +. stat.h_sum;
  h.hg_last <- stat.h_last

let absorb_shard ?parent path =
  (* Killed workers leave partial shards: a torn final line is expected,
     not an error, so lines that do not decode are skipped. *)
  let records =
    match In_channel.with_open_text path In_channel.input_lines with
    | exception Sys_error _ -> []
    | lines ->
        List.filter_map (fun l -> Result.to_option (Schema.of_line l)) lines
  in
  let meta_trace, meta_parent =
    List.find_map
      (function
        | Schema.Meta { trace; parent_span; _ } -> Some (trace, parent_span)
        | _ -> None)
      records
    |> Option.value ~default:(None, None)
  in
  let spans =
    List.filter_map (function Schema.Span s -> Some s | _ -> None) records
  in
  (* A span is kept only if its whole parent chain resolves within the
     shard: enclosing spans of a killed worker never closed, so their
     descendants are orphans and are dropped rather than re-rooted. *)
  let by_id : (int, Schema.span) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (s : Schema.span) -> Hashtbl.replace by_id s.id s) spans;
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
              match s.Schema.parent with None -> true | Some p -> resolves p)
        in
        Hashtbl.replace resolved id r;
        r
  in
  let kept = List.filter (fun (s : Schema.span) -> resolves s.id) spans in
  let rb_parent, rb_path, rb_depth =
    match parent with
    (* Caller-chosen parent (a manual span): the serve daemon absorbs a
       worker's shard under that request's solve span, overriding the
       fork-time meta parent (no request span was open at fork). *)
    | Some (h : Manual.handle) ->
        (Some h.Manual.m_id, h.Manual.m_path ^ "/", h.Manual.m_depth + 1)
    | None -> (
        match
          Option.bind meta_parent (fun pid ->
              List.find_opt (fun f -> f.f_id = pid) !stack)
        with
        | Some f -> (Some f.f_id, f.f_path ^ "/", f.f_depth + 1)
        | None -> (None, "", 0))
  in
  let id_map : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Schema.span) ->
      Hashtbl.replace id_map s.id !next_span_id;
      incr next_span_id)
    kept;
  List.iter
    (fun (s : Schema.span) ->
      let span =
        {
          s with
          id = Hashtbl.find id_map s.id;
          parent =
            (match s.parent with
            | None -> rb_parent
            | Some p -> Some (Hashtbl.find id_map p));
          path = rb_path ^ s.path;
          depth = s.depth + rb_depth;
          trace = (match s.trace with Some _ as t -> t | None -> meta_trace);
        }
      in
      note_rollup span.path span.dur_ns;
      List.iter (fun snk -> snk.write (Schema.Span span)) !sinks)
    kept;
  (* Fold the worker's close-time metric lines into the coordinator's
     registries: counters add, gauges overwrite, histograms merge. *)
  List.iter
    (function
      | Schema.Counter { name; value } ->
          let c = counter_handle name in
          c.c_value <- c.c_value + value
      | Schema.Gauge { name; value } ->
          let g = gauge_handle name in
          g.g_value <- value;
          g.g_set <- true
      | Schema.Histogram { name; stat } when stat.h_count > 0 ->
          merge_histogram (histogram_handle name) stat
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
    if count > 0 && enabled () then
      merge_histogram h
        { h_count = count; h_sum = sum; h_min = min; h_max = max; h_last = last }
end

(* ------------------------------------------------------------------ *)
(* Profiling surface *)

module Prof = struct
  let enabled () = !prof_on

  let set_enabled b = prof_on := b

  let sample () = prof_sample ()

  let allocated_words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
end

module Report = Report
