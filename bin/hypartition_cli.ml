(* hypartition — command-line hypergraph partitioner.

   Subcommands:
     partition FILE   partition an hMETIS hypergraph and report metrics
     stats FILE       structural statistics of an hMETIS hypergraph
     recognize FILE   decide whether the hypergraph is a hyperDAG
     hierarchical FILE  hierarchical (NUMA) partitioning, Definition 7.1
     check FILE [PARTS]  audit an instance (and a partition) against the
                      paper invariants; exits non-zero on violations *)

open Cmdliner

let load_hypergraph path =
  try Ok (Hypergraph.Hmetis.load path) with
  | Failure msg -> Error msg
  | Sys_error msg -> Error msg

let hypergraph_arg =
  let doc = "Input hypergraph in hMETIS format." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let k_arg =
  let doc = "Number of parts." in
  Arg.(value & opt int 2 & info [ "k"; "parts" ] ~docv:"K" ~doc)

let eps_arg =
  let doc = "Balance parameter epsilon: parts hold at most (1+eps)*W/k." in
  Arg.(value & opt float 0.03 & info [ "e"; "eps" ] ~docv:"EPS" ~doc)

let seed_arg =
  let doc = "Random seed (the solvers are deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Observability: --trace/--stats mirror the HYPARTITION_TRACE and
   HYPARTITION_OBS environment variables (lib/obs reads those lazily; the
   flags just enable the sinks explicitly and take precedence). *)

let trace_arg =
  let doc =
    Printf.sprintf
      "Write a JSONL span trace (schema %s) of the run to $(docv), \
       truncating any existing file."
      Obs.trace_schema_version
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"TRACE" ~doc)

let stats_flag =
  let doc =
    "Print the aggregated span tree and metric summary to stderr on exit."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let setup_obs trace stats =
  (match trace with
  | Some path ->
      Obs.enable_trace path;
      (* Stamp the header before any spans: the trace should identify its
         machine and revision even for subcommands that never reach the
         batch engine (which stamps its own richer record). *)
      Obs.emit_provenance (Engine.Provenance.collect ())
  | None -> ());
  if stats then Obs.enable_summary ()

let algorithm_arg =
  let doc =
    Printf.sprintf "Partitioning algorithm: %s."
      (String.concat ", " (List.map fst Engine.Spec.algorithms))
  in
  Arg.(
    value
    & opt (enum Engine.Spec.algorithms) Engine.Spec.Multilevel
    & info [ "a"; "algorithm" ] ~doc)

let threads_arg =
  let doc =
    "Workers that FM-refine the multilevel solver's 13 coarsest-level \
     portfolio candidates: the solve spawns min(N, 13) - 1 domains (0 or \
     1 = none).  Every N writes the same partition as the default."
  in
  Arg.(value & opt int 0 & info [ "threads" ] ~docv:"N" ~doc)

let metric_arg =
  let doc = "Cost metric: connectivity (sum of lambda-1) or cutnet." in
  Arg.(
    value
    & opt (enum Engine.Spec.metrics) Partition.Connectivity
    & info [ "metric" ] ~doc)

let output_arg =
  let doc = "Write the partition vector (one part id per line) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)

let dot_arg =
  let doc = "Write a Graphviz rendering of the partitioned hypergraph." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"DOT" ~doc)

let report hg part metric =
  Printf.printf "k            : %d\n" (Partition.k part);
  Printf.printf "connectivity : %d\n" (Partition.connectivity_cost hg part);
  Printf.printf "cut-net      : %d\n" (Partition.cutnet_cost hg part);
  Printf.printf "imbalance    : %.4f\n" (Partition.imbalance hg part);
  Printf.printf "part weights : %s\n"
    (String.concat " "
       (Array.to_list (Array.map string_of_int (Partition.part_weights hg part))));
  ignore metric

let run_partition trace stats path k eps seed algorithm metric threads output
    dot =
  setup_obs trace stats;
  if threads > 0 && algorithm <> Engine.Spec.Multilevel then begin
    Printf.eprintf "error: --threads applies to the multilevel algorithm only\n";
    exit 1
  end;
  let config = { Engine.Spec.k; eps; algorithm; metric } in
  let solved =
    Result.bind
      (Engine.Spec.validate
         { instance = Hmetis_file path; config; seed; timeout_s = None })
    @@ fun () ->
    Result.bind (load_hypergraph path) @@ fun hg ->
    Engine.Runner.solve config ~threads ~seed hg
    |> Result.map (fun part -> (hg, part))
  in
  match solved with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok (hg, part) ->
      report hg part metric;
      (match output with
      | Some out ->
          Out_channel.with_open_text out (fun oc ->
              Array.iter
                (fun c -> output_string oc (string_of_int c ^ "\n"))
                (Partition.assignment part))
      | None -> ());
      (match dot with
      | Some out -> Hypergraph.Dot.save ~parts:(Partition.assignment part) out hg
      | None -> ());
      0

let run_stats path =
  match load_hypergraph path with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok hg ->
      Printf.printf "nodes (n)    : %d\n" (Hypergraph.num_nodes hg);
      Printf.printf "edges (m)    : %d\n" (Hypergraph.num_edges hg);
      Printf.printf "pins (rho)   : %d\n" (Hypergraph.num_pins hg);
      Printf.printf "max degree   : %d\n" (Hypergraph.max_degree hg);
      Printf.printf "node weight  : %d\n" (Hypergraph.total_node_weight hg);
      Printf.printf "edge weight  : %d\n" (Hypergraph.total_edge_weight hg);
      let _, components = Hypergraph.connected_components hg in
      Printf.printf "components   : %d\n" components;
      0

let run_recognize path =
  match load_hypergraph path with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok hg -> (
      match Hyperdag.recognize hg with
      | Some generators ->
          Printf.printf "hyperDAG: yes\n";
          Printf.printf "generators (edge: node):\n";
          Array.iteri (fun e g -> Printf.printf "  %d: %d\n" e g) generators;
          0
      | None ->
          Printf.printf "hyperDAG: no\n";
          (match Hyperdag.violating_subset hg with
          | Some nodes ->
              Printf.printf "violating subset (all degrees >= 2): %s\n"
                (String.concat " "
                   (Array.to_list (Array.map string_of_int nodes)))
          | None -> ());
          0)

let branching_arg =
  let doc = "Branching factors b1,b2,... of the hierarchy (product = k)." in
  Arg.(value & opt (list int) [ 2; 2 ] & info [ "branching" ] ~docv:"B1,B2" ~doc)

let costs_arg =
  let doc = "Per-level transfer costs g1,g2,... (non-increasing, g_d = 1)." in
  Arg.(value & opt (list float) [ 4.0; 1.0 ] & info [ "costs" ] ~docv:"G1,G2" ~doc)

let run_hierarchical trace stats path eps seed branching costs =
  setup_obs trace stats;
  match load_hypergraph path with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok hg -> (
      match
        Hierarchy.Topology.create
          ~branching:(Array.of_list branching)
          ~costs:(Array.of_list costs)
      with
      | exception Invalid_argument msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | topo -> (
          let k = Hierarchy.Topology.num_leaves topo in
          (* ε and k get [partition]'s checks and messages. *)
          let config =
            {
              Engine.Spec.k;
              eps;
              algorithm = Engine.Spec.Recursive;
              metric = Partition.Connectivity;
            }
          in
          match
            Result.bind
              (Engine.Spec.validate
                 { instance = Hmetis_file path; config; seed; timeout_s = None })
              (fun () ->
                Engine.Spec.validate_k ~n:(Hypergraph.num_nodes hg) k)
          with
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              1
          | Ok () ->
              let rng = Support.Rng.create seed in
              (* Two-step method with a multilevel step (i). *)
              let two = Hierarchy.Two_step.run ~eps rng topo hg in
              (* Recursive hierarchical partitioning. *)
              let recursive = Solvers.Recursive.hierarchical ~eps rng topo hg in
              Printf.printf "topology      : %s\n"
                (Fmt.str "%a" Hierarchy.Topology.pp topo);
              Printf.printf "k (leaves)    : %d\n" k;
              Printf.printf "two-step      : flat %d, hierarchical %.2f\n"
                two.Hierarchy.Two_step.flat_cost
                two.Hierarchy.Two_step.hier_cost;
              Printf.printf "recursive     : flat %d, hierarchical %.2f\n"
                (Partition.connectivity_cost hg recursive)
                (Hierarchy.Hier_cost.cost topo hg recursive);
              0))

let partition_file_arg =
  let doc = "Partition vector file: one part id per line." in
  Arg.(required & pos 1 (some file) None & info [] ~docv:"PARTS" ~doc)

let run_evaluate path parts_path branching costs =
  match load_hypergraph path with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok hg -> (
      match Partition.Io.load ~n:(Hypergraph.num_nodes hg) parts_path with
      | exception Failure msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | part ->
          let k = Partition.k part in
          report hg part Partition.Connectivity;
          (* Hierarchical cost when the topology matches k. *)
          (match
             Hierarchy.Topology.create
               ~branching:(Array.of_list branching)
               ~costs:(Array.of_list costs)
           with
          | exception Invalid_argument _ -> ()
          | topo ->
              if Hierarchy.Topology.num_leaves topo = k then
                Printf.printf "hierarchical : %.2f  (%s)\n"
                  (Hierarchy.Hier_cost.cost topo hg part)
                  (Fmt.str "%a" Hierarchy.Topology.pp topo));
          0)

let dag_arg =
  let doc = "Input DAG ('n m' header, then 'u v' edge lines)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DAG" ~doc)

let run_schedule trace stats path k =
  setup_obs trace stats;
  match (try Ok (Hyperdag.Dag_io.load path) with Failure m -> Error m) with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok dag ->
      Printf.printf "nodes          : %d\n" (Hyperdag.Dag.num_nodes dag);
      Printf.printf "edges          : %d\n" (Hyperdag.Dag.num_edges dag);
      Printf.printf "critical path  : %d\n"
        (Hyperdag.Dag.critical_path_length dag);
      Printf.printf "lower bound    : %d\n" (Scheduling.Mu.lower_bound dag ~k);
      (match Scheduling.Mu.makespan_general dag ~k with
      | Scheduling.Mu.Exact m -> Printf.printf "optimal mu     : %d\n" m
      | Scheduling.Mu.Bounds (lo, hi) ->
          Printf.printf "mu bounds      : [%d, %d]\n" lo hi);
      let sched = Scheduling.List_sched.schedule dag ~k in
      Printf.printf "list schedule  : makespan %d (valid %b)\n"
        (Scheduling.Schedule.makespan sched)
        (Scheduling.Schedule.is_valid ~k dag sched);
      0

let run_convert path output =
  match (try Ok (Hyperdag.Dag_io.load path) with Failure m -> Error m) with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok dag ->
      let hg, generators = Hyperdag.of_dag dag in
      Printf.printf "hyperDAG: %d nodes, %d hyperedges (Definition 3.2)\n"
        (Hypergraph.num_nodes hg) (Hypergraph.num_edges hg);
      Printf.printf "generators: %s\n"
        (String.concat " "
           (Array.to_list (Array.map string_of_int generators)));
      (match output with
      | Some out ->
          Hypergraph.Hmetis.save out hg;
          Printf.printf "wrote %s\n" out
      | None -> ());
      0

let schedule_cmd =
  let info =
    Cmd.info "schedule"
      ~doc:"Makespan bounds and a list schedule for a computational DAG."
  in
  Cmd.v info Term.(const run_schedule $ trace_arg $ stats_flag $ dag_arg $ k_arg)

let convert_cmd =
  let info =
    Cmd.info "convert"
      ~doc:"Convert a computational DAG to its hyperDAG (hMETIS output)."
  in
  Cmd.v info Term.(const run_convert $ dag_arg $ output_arg)

let out_required_arg =
  let doc = "Output file." in
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)

let run_generate kind n k out seed =
  let rng = Support.Rng.create seed in
  if n < 1 || n > Hypergraph.max_nodes then begin
    Printf.eprintf "error: -n must be in 1..%d (got %d)\n" Hypergraph.max_nodes
      n;
    1
  end
  else
  match kind with
  | `Random ->
      Hypergraph.Hmetis.save out
        (Workloads.Rand_hg.uniform rng ~n ~m:(3 * n / 2) ~min_size:2
           ~max_size:6);
      0
  | `Two_regular ->
      Hypergraph.Hmetis.save out
        (Workloads.Rand_hg.two_regular rng ~n ~m:(max 2 (n / 2)));
      0
  | `Planted ->
      Hypergraph.Hmetis.save out
        (Workloads.Rand_hg.planted rng ~n ~m:(2 * n) ~k ~locality:0.9
           ~edge_size:4);
      0
  | `Spmv ->
      let side = max 2 (int_of_float (sqrt (float_of_int n))) in
      Hypergraph.Hmetis.save out
        (Workloads.Spmv.fine_grain (Workloads.Spmv.banded ~size:side ~bandwidth:2));
      0
  | `Fft ->
      let stages = max 1 (int_of_float (Float.log2 (float_of_int (max 2 n)))) in
      Hyperdag.Dag_io.save out (Workloads.Dag_gen.fft ~stages);
      0
  | `Stencil ->
      let side = max 2 (int_of_float (sqrt (float_of_int n))) in
      Hyperdag.Dag_io.save out
        (Workloads.Dag_gen.stencil_1d ~width:side ~steps:side);
      0

let generate_cmd =
  let kind_arg =
    let kinds =
      [
        ("random", `Random); ("two-regular", `Two_regular);
        ("planted", `Planted); ("spmv", `Spmv); ("fft", `Fft);
        ("stencil", `Stencil);
      ]
    in
    let doc =
      Printf.sprintf "Workload family: %s."
        (String.concat ", " (List.map fst kinds))
    in
    Arg.(required & pos 0 (some (enum kinds)) None & info [] ~docv:"KIND" ~doc)
  in
  let n_arg =
    let doc = "Approximate size parameter." in
    Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc)
  in
  let info =
    Cmd.info "generate"
      ~doc:
        "Generate a workload (hMETIS hypergraph, or DAG for fft/stencil)."
  in
  Cmd.v info
    Term.(
      const run_generate $ kind_arg $ n_arg $ k_arg $ out_required_arg
      $ seed_arg)

let evaluate_cmd =
  let info =
    Cmd.info "evaluate"
      ~doc:"Evaluate an existing partition vector against a hypergraph."
  in
  Cmd.v info
    Term.(
      const run_evaluate $ hypergraph_arg $ partition_file_arg $ branching_arg
      $ costs_arg)

let partition_cmd =
  let info = Cmd.info "partition" ~doc:"Partition an hMETIS hypergraph." in
  Cmd.v info
    Term.(
      const run_partition $ trace_arg $ stats_flag $ hypergraph_arg $ k_arg
      $ eps_arg $ seed_arg $ algorithm_arg $ metric_arg $ threads_arg
      $ output_arg $ dot_arg)

let stats_cmd =
  let info = Cmd.info "stats" ~doc:"Print hypergraph statistics." in
  Cmd.v info Term.(const run_stats $ hypergraph_arg)

let recognize_cmd =
  let info =
    Cmd.info "recognize"
      ~doc:"Decide whether the hypergraph is a hyperDAG (Lemma B.2)."
  in
  Cmd.v info Term.(const run_recognize $ hypergraph_arg)

let hierarchical_cmd =
  let info =
    Cmd.info "hierarchical"
      ~doc:"Hierarchical (NUMA) partitioning with the Definition 7.1 cost."
  in
  Cmd.v info
    Term.(
      const run_hierarchical $ trace_arg $ stats_flag $ hypergraph_arg
      $ eps_arg $ seed_arg $ branching_arg $ costs_arg)

(* check: run the invariant auditors of lib/analysis over an instance file
   and (optionally) a partition vector.  All costs and capacities are
   recomputed from first principles, so a corrupted partition or a buggy
   writer cannot audit clean. *)

let check_file_arg =
  let doc = "Input hypergraph in hMETIS format." in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let check_parts_arg =
  let doc = "Optional partition vector file: one part id per line." in
  Arg.(value & pos 1 (some file) None & info [] ~docv:"PARTS" ~doc)

let variant_arg =
  let doc = "Balance variant of Definition 3.1: strict (floor) or relaxed \
             (ceil)." in
  Arg.(
    value
    & opt (enum [ ("strict", Partition.Strict); ("relaxed", Partition.Relaxed) ])
        Partition.Strict
    & info [ "variant" ] ~docv:"VARIANT" ~doc)

let rules_flag =
  let doc = "Print the rule catalogue (rule id, enforced paper invariant) \
             and exit." in
  Arg.(value & flag & info [ "rules" ] ~doc)

let run_check trace stats path parts_path eps variant branching costs rules =
  setup_obs trace stats;
  if rules then begin
    List.iter
      (fun (id, what) -> Printf.printf "%-24s %s\n" id what)
      Analysis.catalogue;
    0
  end
  else
    match path with
    | None ->
        Printf.eprintf "error: FILE required (or --rules)\n";
        2
    | Some path -> (
        match load_hypergraph path with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | Ok hg -> (
            let structural =
              [ Analysis.Audit_hg.audit hg; Analysis.Audit_hyperdag.audit hg ]
            in
            let with_partition reports =
              List.iter (fun r -> print_endline (Analysis.Check.to_string r)) reports;
              let merged = Analysis.Check.merge ~subject:path reports in
              if stats then
                Printf.printf "%s\n"
                  (Fmt.str "%a" Analysis.Check.pp_timings merged);
              Analysis.Check.exit_code merged
            in
            match parts_path with
            | None -> with_partition structural
            | Some parts_path -> (
                match Partition.Io.load ~n:(Hypergraph.num_nodes hg) parts_path with
                | exception Failure msg ->
                    Printf.eprintf "error: %s\n" msg;
                    1
                | part ->
                    let k = Partition.k part in
                    Printf.printf "recomputed connectivity : %d\n"
                      (Analysis.Audit_partition.recompute_cost
                         Partition.Connectivity hg part);
                    Printf.printf "recomputed cut-net      : %d\n"
                      (Analysis.Audit_partition.recompute_cost Partition.Cut_net
                         hg part);
                    let part_report =
                      Analysis.Audit_partition.audit ~eps ~variant hg part
                    in
                    (* Hierarchical audit when the topology matches k. *)
                    let hier_reports =
                      match
                        Hierarchy.Topology.create
                          ~branching:(Array.of_list branching)
                          ~costs:(Array.of_list costs)
                      with
                      | exception Invalid_argument _ -> []
                      | topo ->
                          if Hierarchy.Topology.num_leaves topo = k then begin
                            Printf.printf "recomputed hierarchical : %.2f\n"
                              (Analysis.Audit_hierarchy.recompute_cost topo hg
                                 part);
                            [ Analysis.Audit_hierarchy.audit topo hg part ]
                          end
                          else []
                    in
                    with_partition (structural @ (part_report :: hier_reports)))))

let check_cmd =
  let info =
    Cmd.info "check"
      ~doc:
        "Audit a hypergraph (and optionally a partition) against the paper \
         invariants; non-zero exit on any violation."
  in
  Cmd.v info
    Term.(
      const run_check $ trace_arg $ stats_flag $ check_file_arg
      $ check_parts_arg $ eps_arg $ variant_arg $ branching_arg $ costs_arg
      $ rules_flag)

(* trace: validate an emitted observability artifact — a JSONL span
   trace (HYPARTITION_TRACE / --trace) or a batch report — against its
   schema.  Span traces go through Obs.Report's strict loader and batch
   reports through Engine.Batch.check_report, the readers that sit next
   to their writers.  CI runs this over the artifacts it uploads. *)

let run_trace_validate path =
  let ( let* ) r f = match r with Error msg -> Error msg | Ok v -> f v in
  let read () =
    try Ok (In_channel.with_open_text path In_channel.input_all)
    with Sys_error msg -> Error msg
  in
  let result =
    let* content = read () in
    let lines =
      List.filter
        (fun l -> String.trim l <> "")
        (String.split_on_char '\n' content)
    in
    (* Dispatch on the first line's schema tag: a batch report is a
       single JSON object, a trace is JSONL. *)
    match lines with
    | [] -> Error "empty file"
    | first :: _ -> (
        let* head = Obs.Json.parse first in
        match Obs.Json.schema ~expected:Engine.Batch.schema_version head with
        | Ok () ->
            let* doc = Obs.Json.parse (String.trim content) in
            let* outcomes = Engine.Batch.check_report doc in
            Printf.printf
              "valid batch report (schema %s): %d results, %d from cache\n"
              Engine.Batch.schema_version (List.length outcomes)
              (List.length
                 (List.filter (fun o -> o.Engine.Batch.cached) outcomes));
            Ok ()
        | Error _ ->
            let* () =
              Obs.Json.schema ~expected:Obs.trace_schema_version head
            in
            let* data = Obs.Report.load_string content in
            let n = List.length in
            Printf.printf
              "valid trace (schema %s): %d spans (%d roots), %d counters, %d \
               gauges, %d histograms\n"
              Obs.trace_schema_version (n data.Obs.Report.spans)
              (n
                 (List.filter
                    (fun sp -> Option.is_none sp.Obs.Schema.parent)
                    data.spans))
              (n data.counters) (n data.gauges) (n data.histograms);
            Ok ())
  in
  match result with
  | Ok () -> 0
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" path msg;
      1

(* lint: the one source-analysis verb.  SRC rules over the Parsetree of
   every source under lib/, bin/ and test/; DOM rules over the typed .cmt
   front of lib/ and bin/ (a prior `dune build @check` provides the .cmt
   files); one suppression pass over both, with
   written reasons — inline `hyplint: allow SRC03 — reason` markers or
   lint.config entries.  Zero unsuppressed findings is a hard gate (CI
   runs this). *)

let run_lint root config_path rules format effects effects_out =
  if rules then begin
    print_string (Lint.Rules.render_catalogue Analysis_dom.Driver.catalogue);
    0
  end
  else
    match Analysis_dom.Driver.run ?config_path ~root () with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        2
    | Ok { Analysis_dom.Driver.lint; effects = analysis } ->
        let report =
          Lint.Engine.report ~catalogue:Analysis_dom.Driver.catalogue lint
        in
        (match format with
        | `Text ->
            print_endline (Analysis.Check.to_string report);
            Printf.printf "suppressed findings : %d (all with written reasons)\n"
              (List.length lint.Lint.Engine.suppressed)
        | `Json -> print_endline (Obs.Json.to_string (Lint.Engine.to_json lint)));
        if effects then
          print_string (Analysis_dom.Effects.render_witnesses analysis);
        Option.iter
          (fun path ->
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc
                  (Analysis_dom.Effects.certificate analysis)))
          effects_out;
        Analysis.Check.exit_code report

let lint_cmd =
  let root_arg =
    let doc =
      "Repository root to lint (SRC rules walk lib/, bin/, test/; DOM \
       rules read the .cmt files of lib/ and bin/ under ROOT/_build/default)."
    in
    Arg.(value & pos 0 dir "." & info [] ~docv:"ROOT" ~doc)
  in
  let config_arg =
    let doc = "Allowlist file (default: ROOT/lint.config when present)." in
    Arg.(value & opt (some file) None & info [ "config" ] ~docv:"CONF" ~doc)
  in
  let rules_flag =
    let doc =
      "Print the rule catalogue (SRC00..SRC12, DOM00..DOM11) and exit."
    in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let format_arg =
    let doc =
      "Output format: text (Check-report rendering) or json (schema \
       hypartition-lint/2)."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let effects_flag =
    let doc =
      "Also print the effect analysis the certificate leaves out: every \
       solver-reachable function with its source position, classification, \
       transitive reads and the minimal call chain to each shared global it \
       writes."
    in
    Arg.(value & flag & info [ "effects" ] ~doc)
  in
  let effects_out_arg =
    let doc =
      "Also write the parallel-safety certificate (schema \
       hypartition-effects/2, one line per solver entry point) to $(docv) — \
       the committed analysis/effects.json, byte-deterministic and checked \
       fresh by DOM11."
    in
    Arg.(
      value & opt (some string) None & info [ "effects-out" ] ~docv:"PATH" ~doc)
  in
  let info =
    Cmd.info "lint"
      ~doc:
        "Run the source analysis over the repository: the AST-level SRC rules \
         and the typed-AST domain-safety DOM rules; non-zero exit on any \
         unsuppressed finding."
  in
  Cmd.v info
    Term.(
      const run_lint $ root_arg $ config_arg $ rules_flag $ format_arg
      $ effects_flag $ effects_out_arg)

let trace_cmd =
  let file_arg =
    let doc =
      "File to validate: span trace (JSONL) or batch report (JSON).  A \
       span trace passes exactly when `report` accepts it."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let info =
    Cmd.info "trace"
      ~doc:
        "Validate an observability artifact against its schema — JSONL \
         span trace (read by the same strict loader as `report`: meta \
         first, every line decodes, parents present with consistent \
         depths and paths, no negative durations) or batch-report JSON \
         (every result a decodable record); any other schema is \
         reported as unknown.  Non-zero exit if malformed."
  in
  Cmd.v info Term.(const run_trace_validate $ file_arg)

(* report: the analytics layer over the span traces `trace` validates.
   Both read through Obs.Report.load, so they reject the same files;
   where `trace` answers "is this file well-formed", `report` answers
   "where did the time go": per-phase wall/self-time tables, the critical
   path under each engine.job span, top spans, GC gauge summaries — or,
   with --folded, flamegraph-ready folded stacks on stdout. *)

let run_report path folded top =
  match Obs.Report.load path with
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" path msg;
      1
  | Ok data ->
      if folded then print_string (Obs.Report.folded data)
      else Obs.Report.render ~top Format.std_formatter data;
      0

let report_cmd =
  let file_arg =
    let doc =
      Printf.sprintf
        "Span trace (JSONL, schema %s) to analyze.  It is read by the \
         same strict loader as `trace`, so a file `trace` rejects is an \
         error here too."
        Obs.trace_schema_version
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let folded_flag =
    let doc =
      "Emit folded stacks (`a;b;c self-ns`) instead of the tables — pipe \
       into standard flamegraph tooling."
    in
    Arg.(value & flag & info [ "folded" ] ~doc)
  in
  let top_arg =
    let doc = "Number of slowest spans to list in the top-spans table." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc)
  in
  let info =
    Cmd.info "report"
      ~doc:
        "Analyze an observability artifact: per-phase wall/self time, \
         per-job critical paths, top spans and GC summaries from a span \
         trace; --folded writes flamegraph input."
  in
  Cmd.v info Term.(const run_report $ file_arg $ folded_flag $ top_arg)

(* ---- serve: the partitioning-as-a-service daemon ------------------------- *)

(* serve: lib/server's daemon behind a CLI.  One single-threaded loop
   multiplexes the listening socket, every client connection and the
   worker pool's status pipes; requests pass admission control, collapse
   onto identical in-flight work, hit the shared result cache, and
   otherwise fork workers.  SIGINT (and the Shutdown frame) drain
   gracefully: queued jobs turn into skipped records, running workers
   finish, every connection flushes. *)

let run_serve trace stats socket tcp jobs solver_threads timeout cache_dir
    no_cache queue_limit client_limit lru =
  setup_obs trace stats;
  let endpoint =
    match tcp with
    | None -> Ok (Server.Daemon.Unix_socket socket)
    | Some spec -> (
        let host, port_str =
          match String.rindex_opt spec ':' with
          | Some i ->
              ( String.sub spec 0 i,
                String.sub spec (i + 1) (String.length spec - i - 1) )
          | None -> ("", spec)
        in
        match int_of_string_opt port_str with
        | Some port when port > 0 && port < 65536 ->
            Ok (Server.Daemon.Tcp (host, port))
        | _ ->
            Error
              (Printf.sprintf "bad --tcp endpoint %S (want PORT or HOST:PORT)"
                 spec))
  in
  match endpoint with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  | Ok endpoint -> (
      let config =
        {
          Server.Daemon.endpoint;
          pool =
            {
              Engine.Pool.default_config with
              Engine.Pool.jobs;
              default_timeout_s = timeout;
              silence_worker_stdout = true;
              solver_threads;
            };
          cache_dir = (if no_cache then None else Some cache_dir);
          admission =
            { Server.Admission.queue_limit; per_client_limit = client_limit };
          lru_capacity = lru;
        }
      in
      match Server.Daemon.create config with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok daemon ->
          Printf.eprintf "hypartition serve: listening on %s (%d workers)\n%!"
            (Server.Daemon.endpoint_name endpoint)
            (max 1 jobs);
          Server.Daemon.run daemon;
          Printf.eprintf "hypartition serve: drained, bye\n%!";
          0)

let serve_cmd =
  let socket_arg =
    let doc = "Unix-domain socket path to listen on." in
    Arg.(
      value & opt string "hypartition.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc =
      "Listen on TCP instead: $(docv) is PORT (loopback) or HOST:PORT."
    in
    Arg.(
      value & opt (some string) None & info [ "tcp" ] ~docv:"ENDPOINT" ~doc)
  in
  let jobs_arg =
    let doc = "Worker processes." in
    Arg.(value & opt int 2 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let solver_threads_arg =
    let doc =
      "Solver domains per worker for every submitted multilevel job (0 = \
       none spawned).  Changes only wall-clock, never results."
    in
    Arg.(value & opt int 0 & info [ "threads" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc =
      "Default wall-clock budget per job in seconds (SIGKILL on expiry); \
       submitted jobs may carry their own."
    in
    Arg.(
      value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let cache_dir_arg =
    let doc = "Shared result cache directory." in
    Arg.(
      value
      & opt string Engine.Batch.default_cache_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let no_cache_arg =
    let doc = "Disable the result cache (neither read nor write it)." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let queue_limit_arg =
    let doc =
      "Admission control: total queued+running requests before new submits \
       get a busy (queue_full) frame."
    in
    Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N" ~doc)
  in
  let client_limit_arg =
    let doc =
      "Admission control: in-flight requests per connection before new \
       submits get a busy (client_limit) frame."
    in
    Arg.(value & opt int 8 & info [ "client-limit" ] ~docv:"N" ~doc)
  in
  let lru_arg =
    let doc = "Hot-instance LRU capacity (parsed file-backed hypergraphs)." in
    Arg.(value & opt int 16 & info [ "lru" ] ~docv:"N" ~doc)
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Run the partitioning daemon: a long-lived service over a \
         Unix-domain or TCP socket speaking length-prefixed JSONL \
         (hypartition-serve/1), with admission control, request \
         collapsing, a shared result cache and per-request tracing.  \
         SIGINT drains gracefully."
  in
  Cmd.v info
    Term.(
      const run_serve $ trace_arg $ stats_flag $ socket_arg $ tcp_arg
      $ jobs_arg $ solver_threads_arg $ timeout_arg $ cache_dir_arg
      $ no_cache_arg $ queue_limit_arg $ client_limit_arg $ lru_arg)

(* ---- batch: the parallel execution engine -------------------------------- *)

let batch_progress_line (ev : Engine.Batch.event) =
  match ev with
  | Engine.Batch.Cache_hit { record; _ } ->
      Printf.eprintf "[cache]   %s\n%!" (Engine.Spec.describe record.Engine.Record.job)
  | Engine.Batch.Unrunnable { record; _ } ->
      Printf.eprintf "[error]   %s: %s\n%!"
        (Engine.Spec.describe record.Engine.Record.job)
        (Option.value ~default:""
           (Engine.Record.status_detail record.Engine.Record.status))
  | Engine.Batch.Pool (Engine.Pool.Started { job; worker; attempt; _ }) ->
      Printf.eprintf "[w%d]      %s%s\n%!" worker (Engine.Spec.describe job)
        (if attempt > 1 then Printf.sprintf " (attempt %d)" attempt else "")
  | Engine.Batch.Pool (Engine.Pool.Finished { record; _ }) ->
      Printf.eprintf "[%s] %6.2fs %s%s\n%!"
        (Engine.Record.status_name record.Engine.Record.status)
        record.Engine.Record.timing.Engine.Record.wall_s
        (Engine.Spec.describe record.Engine.Record.job)
        (match Engine.Record.status_detail record.Engine.Record.status with
        | Some d -> ": " ^ d
        | None -> "")
  | Engine.Batch.Pool (Engine.Pool.Retrying { job; attempt; delay_s; _ }) ->
      Printf.eprintf "[retry]   %s: attempt %d in %.1fs\n%!"
        (Engine.Spec.describe job) attempt delay_s
  | Engine.Batch.Pool (Engine.Pool.Interrupted { pending }) ->
      Printf.eprintf "[sigint]  draining; skipping %d queued jobs\n%!" pending

let run_batch trace stats manifest files experiments k eps seed algorithm
    metric threads jobs timeout cache_dir no_cache retries format =
  setup_obs trace stats;
  let config =
    { Engine.Spec.k; eps; algorithm; metric }
  in
  let manifest_jobs =
    match manifest with
    | None -> Ok []
    | Some path ->
        Engine.Manifest.load ~known_experiments:Experiments.ids path
  in
  match manifest_jobs with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  | Ok manifest_jobs -> (
      let ad_hoc =
        List.map
          (fun path ->
            { Engine.Spec.instance = Engine.Spec.Hmetis_file path; config;
              seed; timeout_s = timeout })
          files
        @ List.map
            (fun id ->
              { Engine.Spec.instance = Engine.Spec.Experiment id;
                config = Engine.Spec.default_config; seed = 0;
                timeout_s = timeout })
            experiments
      in
      let plans = manifest_jobs @ ad_hoc in
      match
        List.find_opt
          (fun id -> not (List.mem id Experiments.ids))
          experiments
      with
      | Some id ->
          Printf.eprintf "error: unknown experiment %s; valid: %s\n" id
            (String.concat " " Experiments.ids);
          2
      | None when plans = [] ->
          Printf.eprintf
            "error: nothing to run (give a --manifest, hypergraph FILEs or \
             --experiment ids)\n";
          2
      | None -> (
          (* In text mode, experiment jobs print their tables to stdout
             (the paper suite's regeneration path); with --format json,
             stdout stays one batch/1 document. *)
          let pool =
            {
              Engine.Pool.default_config with
              jobs;
              retries;
              default_timeout_s = timeout;
              silence_worker_stdout = format = `Json;
              handle_sigint = true;
              solver_threads = threads;
            }
          in
          let batch_config =
            { Engine.Batch.pool;
              cache_dir = (if no_cache then None else Some cache_dir) }
          in
          let on_event ev =
            match format with `Text -> batch_progress_line ev | `Json -> ()
          in
          match Engine.Batch.run ~on_event batch_config plans with
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              2
          | Ok report ->
              (match format with
              | `Json ->
                  print_endline
                    (Obs.Json.to_string
                       (Engine.Batch.report_to_json ~jobs report))
              | `Text ->
                  let s = report.Engine.Batch.stats in
                  Printf.printf
                    "jobs  : %d total, %d from cache, %d ok, %d failed, %d \
                     timeouts, %d crashes, %d skipped (%d retries)\n"
                    s.Engine.Batch.total s.Engine.Batch.from_cache
                    s.Engine.Batch.ok s.Engine.Batch.failed
                    s.Engine.Batch.timeouts s.Engine.Batch.crashes
                    s.Engine.Batch.skipped s.Engine.Batch.retries;
                  (match s.Engine.Batch.cache with
                  | Some c ->
                      Printf.printf
                        "cache : %d hits, %d misses, %d stores, %d corrupt\n"
                        c.Engine.Cache.hits c.Engine.Cache.misses
                        c.Engine.Cache.stores c.Engine.Cache.corrupt
                  | None -> ());
                  Printf.printf "wall  : %.2fs with %d worker%s\n"
                    report.Engine.Batch.wall_s jobs
                    (if jobs = 1 then "" else "s"));
              if Engine.Batch.all_ok report then 0 else 1))

let batch_cmd =
  let manifest_arg =
    let doc =
      Printf.sprintf "Job manifest (JSON, schema %s) to expand and run."
        Engine.Manifest.schema_version
    in
    Arg.(
      value & opt (some file) None & info [ "manifest" ] ~docv:"MANIFEST" ~doc)
  in
  let files_arg =
    let doc = "hMETIS hypergraph files to partition as ad-hoc jobs." in
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let experiments_arg =
    let doc = "Paper experiment ids (E1..) to run as ad-hoc jobs." in
    Arg.(
      value & opt_all string [] & info [ "experiment" ] ~docv:"ID" ~doc)
  in
  let jobs_arg =
    let doc = "Worker processes to run in parallel." in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let solver_threads_arg =
    let doc =
      "Solver domains per worker for every multilevel job (0 = none \
       spawned).  Changes only wall-clock, never results or cache \
       fingerprints."
    in
    Arg.(value & opt int 0 & info [ "threads" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc =
      "Default wall-clock budget per job in seconds (SIGKILL on expiry); \
       manifest entries may override it."
    in
    Arg.(
      value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let cache_dir_arg =
    let doc = "Result cache directory." in
    Arg.(
      value
      & opt string Engine.Batch.default_cache_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let no_cache_arg =
    let doc = "Disable the result cache (neither read nor write it)." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let retries_arg =
    let doc = "Extra attempts for crashed workers (timeouts never retry)." in
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let format_arg =
    let doc =
      "Output format: text or json (hypartition-batch/1).  In text mode \
       experiment jobs print their tables to stdout; json keeps stdout \
       one report."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let info =
    Cmd.info "batch"
      ~doc:
        "Run a job plan (manifest and/or ad-hoc instances) through the \
         parallel, fault-isolated execution engine with a content-addressed \
         result cache.  Exits non-zero if any job ultimately fails."
  in
  Cmd.v info
    Term.(
      const run_batch $ trace_arg $ stats_flag $ manifest_arg $ files_arg
      $ experiments_arg $ k_arg $ eps_arg $ seed_arg $ algorithm_arg
      $ metric_arg $ solver_threads_arg $ jobs_arg $ timeout_arg
      $ cache_dir_arg $ no_cache_arg $ retries_arg $ format_arg)

let main =
  let info =
    Cmd.info "hypartition" ~version:"1.0.0"
      ~doc:"Balanced k-way hypergraph partitioning toolkit."
  in
  Cmd.group info
    [
      partition_cmd; stats_cmd; recognize_cmd; hierarchical_cmd;
      schedule_cmd; convert_cmd; evaluate_cmd; generate_cmd; check_cmd;
      lint_cmd; trace_cmd; report_cmd; batch_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval' main)
