(* The invariant auditors (lib/analysis): clean solver and reduction
   outputs must audit clean, injected corruptions must be flagged under
   exactly the rule class that was violated, and the ANALYSIS_DEBUG gate
   must raise at the offending solver entry point. *)

module A = Analysis
module H = Hypergraph
module P = Partition

let check_ok name r =
  if not (A.Check.ok r) then
    Alcotest.failf "%s: unexpected violations\n%s" name (A.Check.to_string r)

let check_flags name r rule =
  if not (A.Check.has_violation r rule) then
    Alcotest.failf "%s: expected a %s violation, got\n%s" name rule
      (A.Check.to_string r)

let check_flags_only name r rule =
  check_flags name r rule;
  match A.Check.violated_rules r with
  | [ only ] when only = rule -> ()
  | rules ->
      Alcotest.failf "%s: expected only %s, violated %s" name rule
        (String.concat ", " rules)

let with_gate f =
  A.Debug.force true;
  Fun.protect ~finally:(fun () -> A.Debug.force false) f

let random_hg rng =
  let n = 8 + Support.Rng.int rng 24 in
  Workloads.Rand_hg.uniform rng ~n ~m:(3 * n / 2) ~min_size:2 ~max_size:5

(* Every heuristic solver entry point, run under the forced gate: a buggy
   result raises Audit_failure at its source. *)
let test_solver_gates () =
  with_gate (fun () ->
      for seed = 1 to 8 do
        let rng = Support.Rng.create seed in
        let hg = random_hg rng in
        let k = 2 + Support.Rng.int rng 3 in
        let part = Solvers.Multilevel.partition rng hg ~k in
        ignore (Solvers.Multilevel.partition_with_cost rng hg ~k);
        ignore (Solvers.Multilevel.vcycle rng hg part);
        ignore (Solvers.Recursive.bisection rng hg ~k);
        ignore
          (Solvers.Recursive.hierarchical rng
             (Partition.Topology.create ~branching:[| k; 2 |]
                ~costs:[| 2.0; 1.0 |])
             hg);
        let p = Solvers.Initial.random_balanced ~eps:0.1 rng hg ~k in
        ignore (Solvers.Refine.refine hg p);
        ignore (Solvers.Kl_swap.refine hg p);
        ignore (Solvers.Initial.bfs_growth ~eps:0.1 rng hg ~k);
        ignore (Solvers.Initial.round_robin hg ~k);
        let inst =
          Solvers.Constrained.of_layers ~eps:0.5 ~k
            [| Array.init (H.num_nodes hg / 2) Fun.id |]
            ~n:(H.num_nodes hg)
        in
        ignore (Solvers.Constrained.solve rng inst hg ~k)
      done)

(* The exact solvers under the forced gate, plus a direct full-option
   audit of their claimed optima. *)
let test_exact_gates () =
  with_gate (fun () ->
      for seed = 1 to 6 do
        let rng = Support.Rng.create (100 + seed) in
        let hg =
          Workloads.Rand_hg.uniform rng ~n:7 ~m:6 ~min_size:2 ~max_size:4
        in
        let eps = 0.4 in
        (match Solvers.Exact.solve ~eps hg ~k:2 with
        | Some { Solvers.Exact.cost; part } ->
            check_ok "exact"
              (A.Audit_partition.audit ~eps
                 ~claimed:{ A.Audit_partition.metric = P.Connectivity; cost }
                 hg part)
        | None -> ());
        (match Solvers.Exact.brute_force ~eps (Metric P.Connectivity) hg ~k:2 with
        | Some { Solvers.Exact.cost; part } ->
            check_ok "brute-force"
              (A.Audit_partition.audit ~eps
                 ~claimed:{ A.Audit_partition.metric = P.Connectivity; cost }
                 hg part)
        | None -> ());
        match Solvers.Exact.optimum ~eps hg ~k:2 with
        | Some opt -> (
            match Solvers.Xp.decision ~eps hg ~k:2 ~cost_limit:opt with
            | Some witness ->
                check_ok "xp witness"
                  (A.Audit_partition.audit ~eps
                     ~bound:
                       { A.Audit_partition.metric = P.Connectivity; cost = opt }
                     hg witness)
            | None -> Alcotest.fail "XP missed the exact optimum")
        | None -> ()
      done)

let test_xp_multi_gate () =
  with_gate (fun () ->
      let rng = Support.Rng.create 11 in
      let hg = Workloads.Rand_hg.uniform rng ~n:6 ~m:4 ~min_size:2 ~max_size:3 in
      let constraints = P.Multi_constraint.single ~n:(H.num_nodes hg) in
      let eps = 0.4 in
      match
        Solvers.Xp.decision_multi ~eps hg ~k:2 ~constraints
          ~cost_limit:(H.total_edge_weight hg)
      with
      | Some witness ->
          check_ok "xp multi"
            (A.Audit_partition.audit ~variant:P.Strict ~constraints
               ~constraints_eps:eps hg witness)
      | None -> Alcotest.fail "XP multi found nothing at the trivial limit")

(* Every reduction builder's output audits clean on embedded solutions. *)
let test_reduction_audits () =
  let rng = Support.Rng.create 7 in
  let g = Npc.Graph.random rng ~n:5 ~p:0.6 in
  let p = min 2 (Npc.Graph.num_edges g) in
  if p >= 1 then begin
    let sel = Array.init p Fun.id in
    check_ok "spes"
      (A.Audit_reduction.audit_spes ~graph:g ~selection:sel
         (Reductions.Spes_to_partition.build ~eps:0.1
            (Npc.Graph.to_hypergraph g) ~k:2 ~p));
    check_ok "spes-delta2"
      (A.Audit_reduction.audit_spes_delta2 ~graph:g ~hyperdag:false
         ~selection:sel
         (Reductions.Spes_to_partition.build_delta2 ~eps:0.1 g ~p));
    check_ok "spes-delta2-hd"
      (A.Audit_reduction.audit_spes_delta2 ~graph:g ~hyperdag:true
         ~selection:sel
         (Reductions.Spes_to_partition.build_delta2 ~eps:0.1 ~hyperdag:true g
            ~p))
  end;
  let hg = Workloads.Rand_hg.uniform rng ~n:10 ~m:8 ~min_size:2 ~max_size:4 in
  let part = Solvers.Multilevel.partition rng hg ~k:2 in
  check_ok "eps-reduction"
    (A.Audit_reduction.audit_eps_reduction hg part
       (Reductions.Eps_reduction.build ~eps:0.3 ~k:2 hg));
  check_ok "mpu"
    (A.Audit_reduction.audit_mpu ~selection:[| 0; 1 |]
       (Reductions.Spes_to_partition.build ~eps:0.1 hg ~k:2 ~p:2));
  check_ok "mpu-k3"
    (A.Audit_reduction.audit_mpu ~selection:[| 0; 1 |]
       (Reductions.Spes_to_partition.build ~eps:0.1 hg ~k:3 ~p:2));
  let inst = Npc.Three_dm.random_yes rng ~q:2 ~extra:1 in
  check_ok "3dm"
    (A.Audit_reduction.audit_three_dm
       ~matching:(Npc.Three_dm.perfect_matching inst)
       (Reductions.Assignment_from_three_dm.build inst));
  let tp = Npc.Three_partition.random_yes rng ~t:2 ~b:12 in
  (match Npc.Three_partition.solve tp with
  | Some sol ->
      check_ok "sched-3partition"
        (A.Audit_reduction.audit_sched_three_partition ~solution:sol
           (Reductions.Sched_from_three_partition.build tp))
  | None -> Alcotest.fail "yes-instance of 3-partition has no solution");
  check_ok "hyperdag-np-hard"
    (A.Audit_reduction.audit_hyperdag_np_hard ~original:hg ~part
       (Reductions.Hyperdag_np_hard.build ~eps:0.3 hg ~k:2))

let test_structural_audits () =
  for seed = 1 to 6 do
    let rng = Support.Rng.create (200 + seed) in
    let hg = random_hg rng in
    check_ok "hypergraph" (A.Audit_hg.audit hg);
    let dag = Workloads.Dag_gen.random rng ~n:10 ~edge_probability:0.3 in
    let dhg, gen = Hyperdag.of_dag dag in
    check_ok "hyperdag yes" (A.Audit_hyperdag.audit ~generator:gen dhg);
    let sched = Scheduling.List_sched.schedule dag ~k:3 in
    check_ok "schedule"
      (A.Audit_schedule.audit ~k:3
         ~claimed_makespan:(Scheduling.Schedule.makespan sched)
         dag sched);
    let topo = Hierarchy.Topology.two_level ~b1:2 ~b2:2 ~g1:4.0 in
    let p4 = Solvers.Multilevel.partition rng hg ~k:4 in
    check_ok "hierarchy"
      (A.Audit_hierarchy.audit
         ~claimed_cost:(Hierarchy.Hier_cost.cost topo hg p4)
         topo hg p4)
  done;
  check_ok "hyperdag no"
    (A.Audit_hyperdag.audit (Reductions.Counterexamples.triangle ()))

(* Mutation tests: corrupt one aspect of a valid object and demand that
   the auditor flags exactly the injected violation class. *)

let unit_hg_with_cut () =
  (* 8 unit-weight nodes, one edge crossing the natural bisection. *)
  H.of_edges ~n:8 [| [| 0; 4 |]; [| 1; 2 |]; [| 5; 6 |] |]

let bisection () = P.of_predicate ~k:2 ~n:8 (fun v -> v / 4)

let test_mutation_balance () =
  let hg = unit_hg_with_cut () in
  let part = P.create ~k:2 [| 0; 0; 0; 0; 0; 0; 0; 1 |] in
  check_flags_only "balance" (A.Audit_partition.audit ~eps:0.0 hg part)
    "PART-BALANCE"

let test_mutation_cost () =
  let hg = unit_hg_with_cut () in
  let part = bisection () in
  let actual = P.connectivity_cost hg part in
  let r =
    A.Audit_partition.audit ~eps:0.0
      ~claimed:{ A.Audit_partition.metric = P.Connectivity; cost = actual + 1 }
      hg part
  in
  check_flags_only "cost" r "PART-COST"

let test_mutation_bound () =
  let hg = unit_hg_with_cut () in
  let part = bisection () in
  let actual = P.cutnet_cost hg part in
  Alcotest.(check bool) "the bisection cuts an edge" true (actual >= 1);
  let r =
    A.Audit_partition.audit
      ~bound:{ A.Audit_partition.metric = P.Cut_net; cost = actual - 1 }
      hg part
  in
  check_flags_only "bound" r "PART-COST-BOUND"

let test_mutation_shape () =
  let hg = unit_hg_with_cut () in
  let part = bisection () in
  (P.assignment part).(0) <- 2;
  (* Out of range for k = 2: the shape guard must stop everything else. *)
  let r = A.Audit_partition.audit ~eps:0.0 hg part in
  check_flags_only "shape" r "PART-SHAPE"

let test_mutation_layer () =
  let hg = unit_hg_with_cut () in
  let part = bisection () in
  (* Globally balanced, but layer {0..3} sits entirely in part 0. *)
  let r =
    A.Audit_partition.audit ~eps:0.0 ~layers:[| [| 0; 1; 2; 3 |] |] hg part
  in
  check_flags_only "layer" r "PART-LAYER"

let test_mutation_multi_constraint () =
  let hg = unit_hg_with_cut () in
  let part = bisection () in
  let mc = P.Multi_constraint.create [| [| 0; 1; 2; 3 |]; [| 4; 5 |] |] in
  let r =
    A.Audit_partition.audit ~constraints:mc ~constraints_eps:0.0 hg part
  in
  check_flags_only "multi-constraint" r "PART-MC-BALANCE"

let test_mutation_preserved_weights () =
  let hg = unit_hg_with_cut () in
  let part = bisection () in
  let before = P.part_weights hg part in
  before.(0) <- before.(0) + 1;
  before.(1) <- before.(1) - 1;
  let r = A.Audit_partition.audit ~preserved_weights:before hg part in
  check_flags_only "preserved-weights" r "PART-WEIGHTS-PRESERVED"

let test_mutation_generator () =
  let rng = Support.Rng.create 5 in
  let dag = Workloads.Dag_gen.random rng ~n:8 ~edge_probability:0.4 in
  let dhg, gen = Hyperdag.of_dag dag in
  Alcotest.(check bool) "at least two hyperedges" true (Array.length gen >= 2);
  gen.(0) <- gen.(1);
  (* Duplicate generator: no longer injective. *)
  let r = A.Audit_hyperdag.audit ~generator:gen dhg in
  check_flags "generator" r "HD-GEN-SHAPE"

let test_mutation_schedule () =
  let dag = Workloads.Dag_gen.chain 3 in
  let good =
    Scheduling.Schedule.create ~proc:[| 0; 0; 0 |] ~time:[| 1; 2; 3 |]
  in
  check_ok "chain schedule" (A.Audit_schedule.audit ~k:1 dag good);
  let bad =
    Scheduling.Schedule.create ~proc:[| 0; 0; 0 |] ~time:[| 2; 1; 3 |]
  in
  check_flags "precedence"
    (A.Audit_schedule.audit ~k:1 dag bad)
    "SCHED-PREC"

let test_mutation_hierarchy () =
  let rng = Support.Rng.create 9 in
  let hg = random_hg rng in
  let topo = Hierarchy.Topology.two_level ~b1:2 ~b2:2 ~g1:4.0 in
  let p4 = Solvers.Multilevel.partition rng hg ~k:4 in
  let claimed = A.Audit_hierarchy.recompute_cost topo hg p4 +. 5.0 in
  check_flags "hierarchical cost"
    (A.Audit_hierarchy.audit ~claimed_cost:claimed topo hg p4)
    "HIER-COST"

(* The gate itself: a corrupted result raises Audit_failure inside the
   solver wrapper, and is silent when the gate is off. *)
let test_gate_raises () =
  let hg = unit_hg_with_cut () in
  let bad = P.create ~k:2 [| 0; 0; 0; 0; 0; 0; 0; 0 |] in
  with_gate (fun () ->
      match Solvers.Audit_gate.checked ~eps:0.0 hg bad with
      | exception A.Debug.Audit_failure msg ->
          Alcotest.(check bool)
            "failure names the rule" true
            (let rec contains i =
               i + 12 <= String.length msg
               && (String.sub msg i 12 = "PART-BALANCE" || contains (i + 1))
             in
             contains 0)
      | _ -> Alcotest.fail "gate did not raise on an imbalanced partition");
  A.Debug.force false;
  (* Gate off: the same call is a no-op. *)
  ignore (Solvers.Audit_gate.checked ~eps:0.0 hg bad)

(* Audit_hg: corrupt a valid hypergraph through its live CSR views (the
   constructors refuse to build a broken one) and demand exactly the
   violated rules. *)
let audit_hg_victim () =
  H.of_edges ~n:5
    [| [| 0; 1; 2 |]; [| 1; 3 |]; [| 2; 3; 4 |]; [| 0; 4 |] |]

let check_hg_rules name corrupt expected =
  let hg = audit_hg_victim () in
  corrupt hg;
  let r = A.Audit_hg.audit hg in
  Alcotest.(check (list string)) name expected (A.Check.violated_rules r);
  Alcotest.(check int) (name ^ ": one violation per rule")
    (List.length expected) (List.length r.A.Check.violations)

let test_audit_hg_corruptions () =
  check_hg_rules "clean" ignore [];
  check_hg_rules "swapped pins"
    (fun hg ->
      let pins = H.csr_pins hg in
      pins.(0) <- 1;
      pins.(1) <- 0)
    [ "HG-PIN-SORTED" ];
  check_hg_rules "pin set to n"
    (fun hg -> (H.csr_pins hg).(4) <- 5)
    [ "HG-PIN-RANGE"; "HG-TRANSPOSE" ];
  check_hg_rules "pin repeated"
    (fun hg -> (H.csr_pins hg).(2) <- 1)
    [ "HG-PIN-SORTED"; "HG-TRANSPOSE" ];
  check_hg_rules "incidence names a foreign edge"
    (fun hg -> (H.csr_incidence hg).(1) <- 1)
    [ "HG-TRANSPOSE" ];
  check_hg_rules "incidence out of order"
    (fun hg ->
      let inc = H.csr_incidence hg in
      inc.(0) <- 3;
      inc.(1) <- 0)
    [ "HG-TRANSPOSE" ];
  check_hg_rules "last edge loses a pin"
    (fun hg ->
      let off = H.csr_edge_offsets hg in
      off.(4) <- off.(4) - 1)
    [ "HG-TRANSPOSE"; "HG-RHO" ];
  check_hg_rules "zero node weight"
    (fun hg -> (H.csr_node_weights hg).(3) <- 0)
    [ "HG-WEIGHT-POS" ];
  check_hg_rules "negative edge weight"
    (fun hg -> (H.csr_edge_weights hg).(2) <- -1)
    [ "HG-WEIGHT-POS" ];
  let empty = A.Audit_hg.audit (H.of_edges ~n:2 [| [| 0; 1 |]; [||] |]) in
  Alcotest.(check (list string)) "empty edge" [ "HG-EDGE-EMPTY" ]
    (A.Check.violated_rules empty);
  Alcotest.(check bool) "an empty edge only warns" true (A.Check.ok empty)

let test_audit_hg_first_offender () =
  let hg = audit_hg_victim () in
  let pins = H.csr_pins hg in
  (* Unsort edge 2 (pins 5..7), then edge 0 (pins 0..2). *)
  pins.(5) <- 3;
  pins.(6) <- 2;
  pins.(0) <- 1;
  pins.(1) <- 0;
  match (A.Audit_hg.audit hg).A.Check.violations with
  | [ v ] ->
      Alcotest.(check string) "names the first edge"
        "pins of edge 0 are not strictly increasing" v.A.Check.message
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_audit_hg_rules_run () =
  List.iter
    (fun hg ->
      Alcotest.(check int)
        (Printf.sprintf "rules run at m=%d" (H.num_edges hg))
        6 (A.Audit_hg.audit hg).A.Check.rules_run)
    [
      H.empty 3;
      audit_hg_victim ();
      random_hg (Support.Rng.create 5);
    ]

let test_catalogue () =
  let ids = List.map fst A.catalogue in
  Alcotest.(check bool)
    "catalogue covers every audit family" true
    (List.for_all
       (fun prefix ->
         List.exists
           (fun id ->
             String.length id >= String.length prefix
             && String.sub id 0 (String.length prefix) = prefix)
           ids)
       [ "HG-"; "PART-"; "HD-"; "SCHED-"; "RED-"; "HIER-" ]);
  Alcotest.(check bool)
    "rule ids are unique" true
    (List.length ids = List.length (List.sort_uniq String.compare ids))

let suite =
  [
    Alcotest.test_case "solver gates on random instances" `Quick
      test_solver_gates;
    Alcotest.test_case "exact and XP gates" `Quick test_exact_gates;
    Alcotest.test_case "XP multi-constraint gate" `Quick test_xp_multi_gate;
    Alcotest.test_case "reduction audits" `Quick test_reduction_audits;
    Alcotest.test_case "structural audits" `Quick test_structural_audits;
    Alcotest.test_case "mutation: balance" `Quick test_mutation_balance;
    Alcotest.test_case "mutation: cost claim" `Quick test_mutation_cost;
    Alcotest.test_case "mutation: cost bound" `Quick test_mutation_bound;
    Alcotest.test_case "mutation: shape" `Quick test_mutation_shape;
    Alcotest.test_case "mutation: layer" `Quick test_mutation_layer;
    Alcotest.test_case "mutation: multi-constraint" `Quick
      test_mutation_multi_constraint;
    Alcotest.test_case "mutation: preserved weights" `Quick
      test_mutation_preserved_weights;
    Alcotest.test_case "mutation: generator" `Quick test_mutation_generator;
    Alcotest.test_case "mutation: schedule precedence" `Quick
      test_mutation_schedule;
    Alcotest.test_case "mutation: hierarchical cost" `Quick
      test_mutation_hierarchy;
    Alcotest.test_case "debug gate raises" `Quick test_gate_raises;
    Alcotest.test_case "hypergraph audit: corruptions" `Quick
      test_audit_hg_corruptions;
    Alcotest.test_case "hypergraph audit: first offender" `Quick
      test_audit_hg_first_offender;
    Alcotest.test_case "hypergraph audit: one evaluation per rule" `Quick
      test_audit_hg_rules_run;
    Alcotest.test_case "rule catalogue" `Quick test_catalogue;
  ]
