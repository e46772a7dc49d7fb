(* Tests for lib/obs: the JSON codec, the JSONL trace sink (span tree
   round-trip through a file), the trace/2 codec and its strict loader
   (malformed traces rejected with the line or span named, damaged
   traces never raising), metric aggregation, the zero-allocation
   guarantee of disabled instrumentation, and the per-rule audit timings
   that Check derives from the monotonic clock. *)

let json = Alcotest.testable (fun ppf j -> Fmt.string ppf (Obs.Json.to_string j)) ( = )

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_json_roundtrip () =
  let open Obs.Json in
  let doc =
    Obj
      [
        ("null", Null);
        ("bool", Bool true);
        ("int", Int (-42));
        ("float", Float 0.125);
        ("str", Str "a \"quoted\"\nline\twith\\backslash");
        ("arr", Arr [ Int 1; Str "two"; Obj [ ("three", Int 3) ] ]);
        ("empty_obj", Obj []);
        ("empty_arr", Arr []);
      ]
  in
  match parse (to_string doc) with
  | Error msg -> Alcotest.failf "parse error: %s" msg
  | Ok parsed -> Alcotest.check json "round-trips" doc parsed

let test_json_unicode_escape () =
  match Obs.Json.parse {|{"s":"café A"}|} with
  | Error msg -> Alcotest.failf "parse error: %s" msg
  | Ok doc ->
      Alcotest.(check (option string))
        "utf-8 decoded"
        (Some "caf\xc3\xa9 A")
        (Option.bind (Obs.Json.member "s" doc) Obs.Json.get_str)

let test_json_rejects_garbage () =
  let bad = [ "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    bad

(* Run nested instrumented work with a JSONL sink attached, then parse
   the trace back and reconstruct the span tree. *)
let test_trace_roundtrip () =
  let path = Filename.temp_file "obs_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.reset_for_tests ();
  Obs.enable_trace path;
  let c = Obs.Counter.make "test.events" in
  Obs.Span.with_ "outer" ~attrs:[ ("n", Obs.Int 7) ] (fun () ->
      Obs.Span.with_ "inner"
        ~attrs:[ ("label", Obs.Str "x"); ("ok", Obs.Bool true) ]
        (fun () -> Obs.Counter.add c 3);
      Obs.Span.with_ "inner" (fun () ->
          Obs.Span.attr "ratio" (Obs.Float 0.5)));
  Obs.close ();
  Obs.reset_for_tests ();
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let parsed =
    List.map
      (fun l ->
        match Obs.Json.parse l with
        | Ok doc -> doc
        | Error msg -> Alcotest.failf "bad trace line %S: %s" l msg)
      lines
  in
  let field name doc = Option.get (Obs.Json.member name doc) in
  let ty doc = Option.get (Obs.Json.get_str (field "type" doc)) in
  (* Meta line comes first and carries the schema version. *)
  let meta = List.hd parsed in
  Alcotest.(check string) "meta first" "meta" (ty meta);
  Alcotest.(check (option string))
    "schema" (Some Obs.trace_schema_version)
    (Obs.Json.get_str (field "schema" meta));
  let spans = List.filter (fun d -> ty d = "span") parsed in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  (* Children are emitted before their parent (spans are written as they
     end), so "outer" is the last span line. *)
  let outer = List.nth spans 2 in
  let inner1 = List.nth spans 0 and inner2 = List.nth spans 1 in
  let get_i name doc = Option.get (Obs.Json.get_int (field name doc)) in
  let get_s name doc = Option.get (Obs.Json.get_str (field name doc)) in
  Alcotest.(check string) "outer name" "outer" (get_s "name" outer);
  Alcotest.check json "outer parent is null" Obs.Json.Null
    (field "parent" outer);
  Alcotest.(check int) "outer depth" 0 (get_i "depth" outer);
  List.iter
    (fun inner ->
      Alcotest.(check string) "inner name" "inner" (get_s "name" inner);
      Alcotest.(check int)
        "inner parent is outer" (get_i "id" outer) (get_i "parent" inner);
      Alcotest.(check int) "inner depth" 1 (get_i "depth" inner);
      Alcotest.(check string) "inner path" "outer/inner" (get_s "path" inner);
      Alcotest.(check bool)
        "duration sandwich" true
        (get_i "dur_ns" inner <= get_i "dur_ns" outer))
    [ inner1; inner2 ];
  (* Attributes survive the round-trip with their types. *)
  let attrs doc = field "attrs" doc in
  Alcotest.(check (option int))
    "outer attr n" (Some 7)
    (Option.bind (Obs.Json.member "n" (attrs outer)) Obs.Json.get_int);
  Alcotest.(check (option string))
    "inner attr label" (Some "x")
    (Option.bind (Obs.Json.member "label" (attrs inner1)) Obs.Json.get_str);
  Alcotest.check json "inner attr ok" (Obs.Json.Bool true)
    (Option.get (Obs.Json.member "ok" (attrs inner1)));
  Alcotest.(check (option (float 1e-12)))
    "mid-span attr ratio" (Some 0.5)
    (Option.bind (Obs.Json.member "ratio" (attrs inner2)) Obs.Json.get_float);
  (* The counter is flushed at close, after all span lines. *)
  let counters = List.filter (fun d -> ty d = "counter") parsed in
  Alcotest.(check int) "one counter line" 1 (List.length counters);
  let cline = List.hd counters in
  Alcotest.(check string) "counter name" "test.events" (get_s "name" cline);
  Alcotest.(check int) "counter value" 3 (get_i "value" cline)

let test_metric_aggregation () =
  Obs.reset_for_tests ();
  Obs.set_enabled true;
  let c = Obs.Counter.make "agg.counter" in
  Obs.Counter.incr c;
  Obs.Counter.add c 9;
  Alcotest.(check int) "counter value" 10 (Obs.Counter.value c);
  let c' = Obs.Counter.make "agg.counter" in
  Obs.Counter.incr c';
  Alcotest.(check int) "handles interned by name" 11 (Obs.Counter.value c);
  let g = Obs.Gauge.make "agg.gauge" in
  Obs.Gauge.set g 2.5;
  let h = Obs.Histogram.make "agg.hist" in
  List.iter (Obs.Histogram.observe h) [ 4.0; 1.0; 3.0 ];
  Obs.Histogram.observe_int h 2;
  Obs.Span.with_ "agg.span" (fun () -> ());
  Obs.Span.with_ "agg.span" (fun () -> ());
  let snap = Obs.snapshot () in
  Alcotest.(check (list (pair string int)))
    "counters" [ ("agg.counter", 11) ] snap.Obs.counters;
  Alcotest.(check (list (pair string (float 1e-9))))
    "gauges" [ ("agg.gauge", 2.5) ] snap.Obs.gauges;
  (match snap.Obs.histograms with
  | [ ("agg.hist", h) ] ->
      Alcotest.(check int) "hist count" 4 h.Obs.h_count;
      Alcotest.(check (float 1e-9)) "hist sum" 10.0 h.Obs.h_sum;
      Alcotest.(check (float 1e-9)) "hist min" 1.0 h.Obs.h_min;
      Alcotest.(check (float 1e-9)) "hist max" 4.0 h.Obs.h_max;
      Alcotest.(check (float 1e-9)) "hist last" 2.0 h.Obs.h_last
  | other -> Alcotest.failf "unexpected histograms (%d)" (List.length other));
  (match snap.Obs.spans with
  | [ s ] ->
      Alcotest.(check string) "span path" "agg.span" s.Obs.s_path;
      Alcotest.(check int) "span count" 2 s.Obs.s_count
  | other -> Alcotest.failf "unexpected span rollup (%d)" (List.length other));
  (* reset_stats zeroes values but keeps handles usable. *)
  Obs.reset_stats ();
  let snap = Obs.snapshot () in
  Alcotest.(check int) "counters cleared" 0 (List.length snap.Obs.counters);
  Alcotest.(check int) "gauges cleared" 0 (List.length snap.Obs.gauges);
  Alcotest.(check int) "histograms cleared" 0 (List.length snap.Obs.histograms);
  Alcotest.(check int) "rollup cleared" 0 (List.length snap.Obs.spans);
  Obs.Counter.incr c;
  Alcotest.(check int) "handle survives reset_stats" 1 (Obs.Counter.value c);
  Obs.reset_for_tests ()

(* A histogram restarted by reset_stats reports only what it observed
   since: a forked batch worker resets after the fork and must not carry
   the coordinator's sums into its own snapshot. *)
let test_reset_restarts_histogram_sum () =
  Obs.reset_for_tests ();
  Obs.set_enabled true;
  let h = Obs.Histogram.make "reset.hist" in
  List.iter (Obs.Histogram.observe h) [ 5.0; 7.0 ];
  Obs.reset_stats ();
  Obs.Histogram.observe h 3.0;
  (match (Obs.snapshot ()).Obs.histograms with
  | [ ("reset.hist", s) ] ->
      Alcotest.(check int) "count restarted" 1 s.Obs.h_count;
      Alcotest.(check (float 1e-9)) "sum restarted" 3.0 s.Obs.h_sum;
      Alcotest.(check (float 1e-9)) "min restarted" 3.0 s.Obs.h_min;
      Alcotest.(check (float 1e-9)) "max restarted" 3.0 s.Obs.h_max
  | other -> Alcotest.failf "unexpected histograms (%d)" (List.length other));
  Obs.reset_for_tests ()

(* The FM inner loop runs counter increments and span entries with obs
   off; those must not allocate, or the hot path pays a GC tax for
   instrumentation nobody asked for. *)
let test_disabled_no_alloc () =
  Obs.reset_for_tests ();
  let c = Obs.Counter.make "noalloc.counter" in
  let body = fun () -> Obs.Counter.incr c in
  (* Warm up so any one-time lazy initialization is done. *)
  Obs.Span.with_ "noalloc.span" body;
  let before = Obs.Prof.allocated_words () in
  for _ = 1 to 100_000 do
    Obs.Counter.incr c;
    Obs.Counter.add c 2;
    Obs.Span.with_ "noalloc.span" body
  done;
  let delta = Obs.Prof.allocated_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "minor words (%.0f) within noise" delta)
    true (delta < 1024.0);
  Alcotest.(check int) "counter untouched while disabled" 0 (Obs.Counter.value c);
  Obs.reset_for_tests ()

let test_span_timed_when_disabled () =
  Obs.reset_for_tests ();
  let result, dt = Obs.Span.timed "timed.span" (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 result;
  Alcotest.(check bool) "elapsed measured" true (dt >= 0.0);
  Alcotest.(check int)
    "no rollup while disabled" 0
    (List.length (Obs.snapshot ()).Obs.spans);
  Obs.reset_for_tests ()

(* Check attributes inter-rule clock deltas to rule ids. *)
let test_check_timings () =
  let ctx = Analysis_core.Check.create ~subject:"timings" in
  Analysis_core.Check.rule ctx ~id:"T-ONE" true (fun () -> "");
  Analysis_core.Check.rule ctx ~id:"T-TWO" false (fun () -> "boom");
  Analysis_core.Check.rule ctx ~id:"T-ONE" true (fun () -> "");
  let r = Analysis_core.Check.report ctx in
  Alcotest.(check (list string))
    "one entry per rule id, first-evaluation order" [ "T-ONE"; "T-TWO" ]
    (List.map fst r.Analysis_core.Check.timings);
  List.iter
    (fun (id, s) ->
      Alcotest.(check bool) (id ^ " non-negative") true (s >= 0.0))
    r.Analysis_core.Check.timings;
  let merged = Analysis_core.Check.merge ~subject:"m" [ r; r ] in
  Alcotest.(check (list string))
    "merge sums by id" [ "T-ONE"; "T-TWO" ]
    (List.map fst merged.Analysis_core.Check.timings);
  let t id rep = List.assoc id rep.Analysis_core.Check.timings in
  Alcotest.(check (float 1e-12))
    "merged T-ONE is the sum" (2.0 *. t "T-ONE" r) (t "T-ONE" merged);
  (* The --stats rendering mentions every rule id. *)
  let rendered = Fmt.str "%a" Analysis_core.Check.pp_timings merged in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " rendered") true
        (contains_substring rendered id))
    [ "T-ONE"; "T-TWO" ]

let test_monotonic_clock () =
  let a = Support.Util.monotonic_ns () in
  let b = Support.Util.monotonic_ns () in
  Alcotest.(check bool) "positive" true (Int64.compare a 0L > 0);
  Alcotest.(check bool) "monotone" true (Int64.compare a b <= 0);
  Alcotest.(check (float 1e-9)) "seconds_of_ns" 1.5
    (Support.Util.seconds_of_ns 1_500_000_000L)

(* ---- trace/2: shards, absorption, profiling, analytics ------------------ *)

let read_parsed path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Obs.Json.parse l with
         | Ok doc -> doc
         | Error msg -> Alcotest.failf "bad trace line %S: %s" l msg)

let field name doc = Option.get (Obs.Json.member name doc)
let ty doc = Option.get (Obs.Json.get_str (field "type" doc))
let get_i name doc = Option.get (Obs.Json.get_int (field name doc))
let get_s name doc = Option.get (Obs.Json.get_str (field name doc))

(* A worker writes a shard under a trace id; the coordinator absorbs it
   under its open span: renumbered ids, re-rooted parents, trace-stamped
   span lines, metrics folded into the coordinator's registries. *)
let test_shard_absorb () =
  let path = Filename.temp_file "obs_trace" ".jsonl" in
  let shard = path ^ ".worker.424242.jsonl" in
  let finally () =
    Sys.remove path;
    if Sys.file_exists shard then Sys.remove shard
  in
  Fun.protect ~finally @@ fun () ->
  (* "Worker": its own process would fork first; a plain sink swap is
     enough to exercise the shard format in-process. *)
  Obs.reset_for_tests ();
  Obs.enable_trace_shard ~trace_id:"fp-123" ~parent_span:7 ~pid:424242 shard;
  let c = Obs.Counter.make "shard.events" in
  Obs.Span.with_ "multilevel" (fun () ->
      Obs.Span.with_ "coarsen" (fun () -> Obs.Counter.add c 5));
  Obs.close ();
  let shard_lines = read_parsed shard in
  let smeta = List.hd shard_lines in
  Alcotest.(check string) "shard meta first" "meta" (ty smeta);
  Alcotest.(check string) "shard trace id" "fp-123" (get_s "trace" smeta);
  Alcotest.(check int) "shard parent span" 7 (get_i "parent_span" smeta);
  Alcotest.(check int) "shard pid" 424242 (get_i "pid" smeta);
  (* Probe the id the coordinator's first span will get after a reset
     (deterministic), then re-write the shard against it: the shard
     roots must re-parent under a matching open span id. *)
  Obs.reset_for_tests ();
  Obs.set_enabled true;
  let probe = ref None in
  Obs.Span.with_ "probe" (fun () -> probe := Obs.current_span_id ());
  let parent = Option.get !probe in
  Obs.reset_for_tests ();
  Obs.enable_trace_shard ~trace_id:"fp-123" ~parent_span:parent ~pid:424242
    shard;
  let c = Obs.Counter.make "shard.events" in
  Obs.Span.with_ "multilevel" (fun () ->
      Obs.Span.with_ "coarsen" (fun () -> Obs.Counter.add c 5));
  Obs.close ();
  (* "Coordinator": absorb while the parent span is open. *)
  Obs.reset_for_tests ();
  Obs.enable_trace path;
  let absorbed = ref (-1) in
  Obs.Span.with_ "engine.batch" (fun () -> absorbed := Obs.absorb_shard shard);
  Obs.close ();
  Obs.reset_for_tests ();
  Alcotest.(check int) "two spans absorbed" 2 !absorbed;
  let parsed = read_parsed path in
  let spans = List.filter (fun d -> ty d = "span") parsed in
  (* coarsen and multilevel from the shard, then the enclosing
     engine.batch — children flush before parents. *)
  Alcotest.(check (list string))
    "merged span names"
    [ "coarsen"; "multilevel"; "engine.batch" ]
    (List.map (get_s "name") spans);
  let by_name n = List.find (fun d -> get_s "name" d = n) spans in
  let batch = by_name "engine.batch" in
  let ml = by_name "multilevel" in
  let co = by_name "coarsen" in
  Alcotest.(check int)
    "shard root re-parented under engine.batch" (get_i "id" batch)
    (get_i "parent" ml);
  Alcotest.(check int)
    "shard child follows its root" (get_i "id" ml)
    (get_i "parent" co);
  Alcotest.(check string)
    "paths rebased" "engine.batch/multilevel/coarsen" (get_s "path" co);
  Alcotest.(check int) "depths rebased" 2 (get_i "depth" co);
  List.iter
    (fun d ->
      Alcotest.(check string) "trace id stamped" "fp-123" (get_s "trace" d))
    [ ml; co ];
  (* The worker's counter line folded into the coordinator registry. *)
  let counters = List.filter (fun d -> ty d = "counter") parsed in
  Alcotest.(check bool)
    "worker counter folded" true
    (List.exists
       (fun d -> get_s "name" d = "shard.events" && get_i "value" d = 5)
       counters)

(* Spans whose parent chain never closed (killed worker) are dropped, as
   are torn trailing lines; the rest of the shard still absorbs. *)
let test_shard_orphans_dropped () =
  let path = Filename.temp_file "obs_trace" ".jsonl" in
  let shard = path ^ ".worker.7.jsonl" in
  let finally () =
    Sys.remove path;
    if Sys.file_exists shard then Sys.remove shard
  in
  Fun.protect ~finally @@ fun () ->
  Obs.reset_for_tests ();
  Obs.set_enabled true;
  let probe = ref None in
  Obs.Span.with_ "probe" (fun () -> probe := Obs.current_span_id ());
  let parent = Option.get !probe in
  Out_channel.with_open_text shard (fun oc ->
      output_string oc
        (String.concat "\n"
           [
             Printf.sprintf
               {|{"type":"meta","schema":"hypartition-trace/2","clock":"monotonic_ns","trace":"fp-9","parent_span":%d,"pid":7}|}
               parent;
             (* Closed root with a closed child: absorbable. *)
             {|{"type":"span","id":1,"parent":0,"name":"ok","path":"job/ok","depth":1,"start_ns":1,"dur_ns":5,"attrs":{}}|};
             {|{"type":"span","id":0,"parent":null,"name":"job","path":"job","depth":0,"start_ns":0,"dur_ns":9,"attrs":{}}|};
             (* Child of a span that never closed: orphan, dropped. *)
             {|{"type":"span","id":3,"parent":2,"name":"lost","path":"dead/lost","depth":1,"start_ns":2,"dur_ns":1,"attrs":{}}|};
             {|{"type":"span","id":4,"parent":3,"na|};
             (* torn trailing line above *)
           ]));
  Obs.reset_for_tests ();
  Obs.enable_trace path;
  let absorbed = ref (-1) in
  Obs.Span.with_ "engine.batch" (fun () -> absorbed := Obs.absorb_shard shard);
  Obs.close ();
  Obs.reset_for_tests ();
  Alcotest.(check int) "only the closed chain absorbs" 2 !absorbed;
  let spans =
    List.filter (fun d -> ty d = "span") (read_parsed path)
  in
  Alcotest.(check (list string))
    "orphans dropped from the merge"
    [ "ok"; "job"; "engine.batch" ]
    (List.map (get_s "name") spans);
  let batch = List.find (fun d -> get_s "name" d = "engine.batch") spans in
  let job = List.find (fun d -> get_s "name" d = "job") spans in
  Alcotest.(check int)
    "surviving root re-parented" (get_i "id" batch)
    (get_i "parent" job);
  (* A missing shard absorbs nothing and does not raise. *)
  Obs.reset_for_tests ();
  Obs.set_enabled true;
  Alcotest.(check int) "missing shard absorbs 0" 0
    (Obs.absorb_shard "/nonexistent/shard.jsonl");
  Obs.reset_for_tests ()

(* Prof.sample records the quick_stat gauges; allocated_words moves. *)
let test_prof_gauges () =
  Obs.reset_for_tests ();
  Obs.set_enabled true;
  Obs.Prof.set_enabled true;
  Alcotest.(check bool) "prof armed" true (Obs.Prof.enabled ());
  Obs.Prof.sample ();
  let snap = Obs.snapshot () in
  List.iter
    (fun g ->
      Alcotest.(check bool) (g ^ " recorded") true
        (List.mem_assoc g snap.Obs.gauges))
    [
      "gc.minor_collections"; "gc.major_collections"; "gc.compactions";
      "gc.heap_words"; "gc.top_heap_words"; "gc.minor_words";
      "gc.promoted_words"; "gc.major_words";
    ];
  let a = Obs.Prof.allocated_words () in
  let xs = Array.init 10_000 (fun i -> [ i ]) in
  let b = Obs.Prof.allocated_words () in
  Alcotest.(check bool) "allocation metered" true
    (b -. a >= float_of_int (Array.length xs));
  Obs.Prof.set_enabled false;
  Alcotest.(check bool) "prof disarmed" false (Obs.Prof.enabled ());
  Obs.reset_for_tests ()

(* The analytics layer over a synthetic merged trace: phase table, folded
   stacks, canonical structure. *)
let synthetic_trace =
  String.concat "\n"
    [
      {|{"type":"meta","schema":"hypartition-trace/2","clock":"monotonic_ns"}|};
      {|{"type":"provenance","hostname":"h","git_rev":"abc"}|};
      {|{"type":"span","id":2,"parent":1,"name":"coarsen","path":"engine.batch/engine.job/coarsen","depth":2,"start_ns":10,"dur_ns":600,"attrs":{},"trace":"fp-1"}|};
      {|{"type":"span","id":3,"parent":1,"name":"refine","path":"engine.batch/engine.job/refine","depth":2,"start_ns":700,"dur_ns":200,"attrs":{},"trace":"fp-1"}|};
      {|{"type":"span","id":1,"parent":0,"name":"engine.job","path":"engine.batch/engine.job","depth":1,"start_ns":5,"dur_ns":1000,"attrs":{},"trace":"fp-1"}|};
      {|{"type":"span","id":0,"parent":null,"name":"engine.batch","path":"engine.batch","depth":0,"start_ns":0,"dur_ns":1200,"attrs":{}}|};
      {|{"type":"gauge","name":"gc.heap_words","value":4096}|};
      {|{"type":"counter","name":"fm.moves","value":17}|};
    ]

let test_report_analytics () =
  let data =
    match Obs.Report.load_string synthetic_trace with
    | Ok d -> d
    | Error msg -> Alcotest.failf "load_string: %s" msg
  in
  Alcotest.(check (list string))
    "spans decoded in file order"
    [ "coarsen"; "refine"; "engine.job"; "engine.batch" ]
    (List.map (fun s -> s.Obs.Schema.name) data.Obs.Report.spans);
  let rows = Obs.Report.phase_rows data in
  let row path =
    match
      List.find_opt (fun r -> r.Obs.Report.ph_path = path) rows
    with
    | Some r -> r
    | None -> Alcotest.failf "no phase row for %s" path
  in
  let job = row "engine.batch/engine.job" in
  Alcotest.(check int64) "job total" 1000L job.Obs.Report.ph_total_ns;
  (* self = 1000 - (600 + 200) *)
  Alcotest.(check int64) "job self excludes children" 200L
    job.Obs.Report.ph_self_ns;
  Alcotest.(check int64) "leaf self = total" 600L
    (row "engine.batch/engine.job/coarsen").Obs.Report.ph_self_ns;
  (* Folded stacks: flamegraph lines with positive self only. *)
  let folded = Obs.Report.folded data in
  Alcotest.(check bool) "folded non-empty" true (String.length folded > 0);
  Alcotest.(check bool) "folded stack syntax" true
    (contains_substring folded "engine.batch;engine.job;coarsen 600");
  Alcotest.(check bool) "folded self for inner nodes" true
    (contains_substring folded "engine.batch;engine.job 200");
  (* Structure is canonical: names + trace ids, no ids or timestamps. *)
  let structure = Obs.Report.structure data in
  Alcotest.(check bool) "structure has trace ids" true
    (contains_substring structure "engine.job[fp-1]");
  Alcotest.(check bool) "structure hides span ids" false
    (contains_substring structure "start_ns");
  (* Rendering mentions provenance, phases, GC and counters. *)
  let rendered = Fmt.str "%a" (Obs.Report.render ~top:5) data in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " rendered") true
        (contains_substring rendered needle))
    [ "git_rev"; "engine.job"; "critical path"; "gc.heap_words"; "fm.moves" ]

(* The synthetic trace with one line replaced, dropped or added: each
   variant must be an [Error] that names the offending line or span. *)
let synthetic_lines = String.split_on_char '\n' synthetic_trace

let with_line n replacement =
  String.concat "\n"
    (List.concat
       (List.mapi
          (fun i l -> if i + 1 = n then replacement else [ l ])
          synthetic_lines))

let test_report_rejects_garbage () =
  let reject name input =
    match Obs.Report.load_string input with
    | Ok _ -> Alcotest.failf "accepted %s" name
    | Error _ -> ()
  in
  reject "an unknown schema" "{\"schema\":\"nope/1\"}";
  reject "empty input" "";
  (* Retired schemas: trace/1 and the bench/2 report. *)
  reject "a trace/1 meta line"
    {|{"type":"meta","schema":"hypartition-trace/1","clock":"monotonic_ns"}|};
  reject "a bench/2 document"
    {|{"schema":"hypartition-bench/2","git_rev":"abc","experiments":[{"id":"E1","wall_s":0.1}],"micro":[]}|};
  let reject_naming name ~where input =
    match Obs.Report.load_string input with
    | Ok _ -> Alcotest.failf "accepted %s" name
    | Error msg ->
        if not (contains_substring msg where) then
          Alcotest.failf "%s: error %S does not name %S" name msg where
  in
  (* Line 6 is the root span 0; lines 3-5 are its descendants. *)
  reject_naming "a missing parent" ~where:"span 1 (line 5)"
    (with_line 6 []);
  reject_naming "a torn line" ~where:"line 9"
    (synthetic_trace ^ "\n" ^ {|{"type":"span","id":4,"parent":3,"na|});
  reject_naming "an unknown record type" ~where:"line 9"
    (synthetic_trace ^ "\n" ^ {|{"type":"bogus","name":"x"}|});
  reject_naming "meta not on the first line" ~where:"line 1"
    (String.concat "\n"
       (List.nth synthetic_lines 1 :: List.hd synthetic_lines
       :: List.tl (List.tl synthetic_lines)));
  reject_naming "a second meta line" ~where:"line 9"
    (synthetic_trace ^ "\n" ^ List.hd synthetic_lines);
  reject_naming "a negative dur_ns" ~where:"line 4"
    (with_line 4
       [ {|{"type":"span","id":3,"parent":1,"name":"refine","path":"engine.batch/engine.job/refine","depth":2,"start_ns":700,"dur_ns":-200,"attrs":{},"trace":"fp-1"}|} ]);
  reject_naming "a depth that skips a level" ~where:"span 3 (line 4)"
    (with_line 4
       [ {|{"type":"span","id":3,"parent":1,"name":"refine","path":"engine.batch/engine.job/refine","depth":3,"start_ns":700,"dur_ns":200,"attrs":{},"trace":"fp-1"}|} ]);
  reject_naming "a path outside the parent's" ~where:"span 3 (line 4)"
    (with_line 4
       [ {|{"type":"span","id":3,"parent":1,"name":"refine","path":"engine.batch/refine","depth":2,"start_ns":700,"dur_ns":200,"attrs":{},"trace":"fp-1"}|} ]);
  reject_naming "a duplicate span id" ~where:"span 2 (line 4)"
    (with_line 4
       [ {|{"type":"span","id":2,"parent":1,"name":"refine","path":"engine.batch/engine.job/refine","depth":2,"start_ns":700,"dur_ns":200,"attrs":{},"trace":"fp-1"}|} ]);
  (* A child without start_ns is not dropped: its parent's self time
     would silently grow by the child's duration. *)
  reject_naming "a child span without start_ns" ~where:"line 4"
    (with_line 4
       [ {|{"type":"span","id":3,"parent":1,"name":"refine","path":"engine.batch/engine.job/refine","depth":2,"dur_ns":200,"attrs":{},"trace":"fp-1"}|} ])

(* Every record kind survives the codec, as a JSON value and as a line. *)
let test_schema_roundtrip () =
  let module S = Obs.Schema in
  let span =
    {
      S.id = 5;
      parent = Some 2;
      name = "refine";
      path = "multilevel/refine";
      depth = 1;
      start_ns = 123_456_789L;
      dur_ns = 42L;
      attrs =
        [ ("label", S.Str "x \"q\""); ("n", S.Int (-7)); ("ratio", S.Float 0.25);
          ("ok", S.Bool true) ];
      trace = Some "0123456789abcdef";
    }
  in
  let stat =
    { S.h_count = 3; h_sum = 10.5; h_min = 1.0; h_max = 6.25; h_last = 3.25 }
  in
  List.iter
    (fun r ->
      let json = S.to_json r in
      let line = Obs.Json.to_string json in
      if S.of_json json <> Ok r then Alcotest.failf "of_json (to_json r) <> Ok r: %s" line;
      if S.of_line line <> Ok r then Alcotest.failf "line round-trip differs: %s" line)
    [
      S.Meta { trace = None; parent_span = None; pid = None };
      S.Meta { trace = Some "fp-1"; parent_span = Some 7; pid = Some 4242 };
      S.Span span;
      S.Span { span with parent = None; depth = 0; path = "refine"; attrs = []; trace = None };
      S.Counter { name = "fm.moves"; value = 17 };
      S.Gauge { name = "gc.heap_words"; value = 4096.0 };
      S.Histogram { name = "cost.connectivity"; stat };
      S.Provenance [ ("hostname", Obs.Json.Str "h"); ("workers", Obs.Json.Int 2) ];
    ];
  (* The writer renders a non-finite float as null, which reads back as
     nan rather than failing the line. *)
  let reread r = S.of_line (Obs.Json.to_string (S.to_json r)) in
  (match reread (S.Gauge { name = "g"; value = Float.infinity }) with
  | Ok (S.Gauge { value; _ }) when Float.is_nan value -> ()
  | _ -> Alcotest.fail "an infinite gauge does not read back as nan");
  match reread (S.Span { span with attrs = [ ("cost", S.Float Float.infinity) ] }) with
  | Ok (S.Span { attrs = [ ("cost", S.Float f) ]; _ }) when Float.is_nan f -> ()
  | _ -> Alcotest.fail "an infinite attribute does not read back as nan"

(* A trace the sink wrote, cut at any byte or with any one byte changed,
   loads or is rejected — the loader and the views over what it accepts
   never raise. *)
let sink_written_trace =
  lazy
    (let path = Filename.temp_file "obs_fuzz" ".jsonl" in
     Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
     Obs.reset_for_tests ();
     Obs.enable_trace path;
     Obs.emit_provenance [ ("hostname", Obs.Json.Str "h") ];
     let c = Obs.Counter.make "fuzz.events" in
     let g = Obs.Gauge.make "fuzz.gauge" in
     let h = Obs.Histogram.make "fuzz.hist" in
     Obs.Span.with_ "outer" ~attrs:[ ("n", Obs.Int 3) ] (fun () ->
         Obs.Span.with_ "inner" (fun () -> Obs.Counter.add c 2);
         Obs.Span.with_ "inner" ~attrs:[ ("ok", Obs.Bool true) ] (fun () ->
             Obs.Gauge.set g 1.5;
             Obs.Histogram.observe h 2.0));
     Obs.close ();
     Obs.reset_for_tests ();
     In_channel.with_open_bin path In_channel.input_all)

let prop_load_never_raises =
  QCheck.Test.make ~name:"report loader never raises on a damaged trace"
    ~count:200
    QCheck.(triple bool (int_bound 1_000_000) (int_range 1 255))
    (fun (truncate, at, xor) ->
      let trace = Lazy.force sink_written_trace in
      let at = at mod String.length trace in
      let damaged =
        if truncate then String.sub trace 0 at
        else
          String.mapi
            (fun i c -> if i = at then Char.chr (Char.code c lxor xor) else c)
            trace
      in
      match Obs.Report.load_string damaged with
      | Error _ -> true
      | Ok data ->
          ignore (Obs.Report.structure data);
          ignore (Obs.Report.folded data);
          ignore (Fmt.str "%a" (Obs.Report.render ~top:3) data);
          true)

let test_sink_trace_loads () =
  match Obs.Report.load_string (Lazy.force sink_written_trace) with
  | Error msg -> Alcotest.failf "sink-written trace rejected: %s" msg
  | Ok data ->
      Alcotest.(check int) "three spans" 3 (List.length data.Obs.Report.spans);
      Alcotest.(check int) "one histogram" 1 (List.length data.histograms)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escape;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "trace round-trip through JSONL sink" `Quick
      test_trace_roundtrip;
    Alcotest.test_case "metric aggregation and reset" `Quick
      test_metric_aggregation;
    Alcotest.test_case "reset restarts histogram sums" `Quick
      test_reset_restarts_histogram_sum;
    Alcotest.test_case "disabled instrumentation does not allocate" `Quick
      test_disabled_no_alloc;
    Alcotest.test_case "Span.timed measures when disabled" `Quick
      test_span_timed_when_disabled;
    Alcotest.test_case "per-rule audit timings" `Quick test_check_timings;
    Alcotest.test_case "monotonic clock" `Quick test_monotonic_clock;
    Alcotest.test_case "shard write and absorb" `Quick test_shard_absorb;
    Alcotest.test_case "shard orphans and torn lines dropped" `Quick
      test_shard_orphans_dropped;
    Alcotest.test_case "GC profiling gauges" `Quick test_prof_gauges;
    Alcotest.test_case "report analytics over a merged trace" `Quick
      test_report_analytics;
    Alcotest.test_case "report rejects malformed input" `Quick
      test_report_rejects_garbage;
    Alcotest.test_case "schema codec round-trips every record kind" `Quick
      test_schema_roundtrip;
    Alcotest.test_case "report loads a sink-written trace" `Quick
      test_sink_trace_loads;
    QCheck_alcotest.to_alcotest prop_load_never_raises;
  ]
