(* Tests for unit-task scheduling: list scheduling, Coffman-Graham,
   exact mu / mu_p and the schedule-based constraint of Definition 5.4. *)

module D = Hyperdag.Dag
module Sch = Scheduling

let chain n = D.of_edges ~n (Support.Util.list_init (n - 1) (fun i -> (i, i + 1)))

let independent n = D.of_edges ~n []

let diamond () = D.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let random_dag rng ~n ~p =
  let edges = ref [] in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      if Support.Rng.bernoulli rng p then edges := (u, v) :: !edges
    done
  done;
  D.of_edges ~n !edges

let test_schedule_validity_checks () =
  let d = diamond () in
  let good = Sch.Schedule.create ~proc:[| 0; 0; 1; 0 |] ~time:[| 1; 2; 2; 3 |] in
  Alcotest.(check bool) "valid" true (Sch.Schedule.is_valid ~k:2 d good);
  Alcotest.(check int) "makespan" 3 (Sch.Schedule.makespan good);
  let collision =
    Sch.Schedule.create ~proc:[| 0; 0; 0; 0 |] ~time:[| 1; 2; 2; 3 |]
  in
  Alcotest.(check bool) "slot collision" false
    (Sch.Schedule.is_valid ~k:2 d collision);
  let precedence =
    Sch.Schedule.create ~proc:[| 0; 1; 1; 0 |] ~time:[| 2; 1; 3; 4 |]
  in
  Alcotest.(check bool) "precedence violated" false
    (Sch.Schedule.is_valid ~k:2 d precedence);
  Alcotest.(check bool) "respects partition" true
    (Sch.Schedule.respects_partition good [| 0; 0; 1; 0 |]);
  Alcotest.(check bool) "violates partition" false
    (Sch.Schedule.respects_partition good [| 0; 1; 1; 0 |])

let test_list_schedule_chain () =
  (* A directed path is not parallelizable at all: makespan n (Sec 5.2). *)
  let d = chain 7 in
  Alcotest.(check int) "chain makespan" 7 (Sch.List_sched.makespan d ~k:4);
  let s = Sch.List_sched.schedule d ~k:4 in
  Alcotest.(check bool) "valid" true (Sch.Schedule.is_valid ~k:4 d s)

let test_list_schedule_independent () =
  (* k disjoint unit tasks: perfectly parallelizable. *)
  let d = independent 12 in
  Alcotest.(check int) "independent makespan" 3 (Sch.List_sched.makespan d ~k:4)

let test_list_schedule_always_valid () =
  let rng = Support.Rng.create 7 in
  for _ = 1 to 20 do
    let d = random_dag rng ~n:12 ~p:0.2 in
    let s = Sch.List_sched.schedule d ~k:3 in
    Alcotest.(check bool) "list schedule valid" true
      (Sch.Schedule.is_valid ~k:3 d s);
    Alcotest.(check bool) "list schedule >= lower bound" true
      (Sch.Schedule.makespan s >= Sch.Mu.lower_bound d ~k:3)
  done

let test_coffman_graham_optimal_k2 () =
  (* Against the exact DP on random DAGs. *)
  let rng = Support.Rng.create 11 in
  for _ = 1 to 15 do
    let d = random_dag rng ~n:10 ~p:0.25 in
    let cg = Sch.Coffman_graham.two_processor_makespan d in
    let opt = Sch.Mu.exact_makespan d ~k:2 in
    Alcotest.(check int) "CG optimal at k=2" opt cg;
    let s = Sch.Coffman_graham.schedule d ~k:2 in
    Alcotest.(check bool) "CG schedule valid" true
      (Sch.Schedule.is_valid ~k:2 d s)
  done

let test_hu_optimal_on_forests () =
  let rng = Support.Rng.create 13 in
  for _ = 1 to 15 do
    (* Random out-tree: each node's parent is an earlier node. *)
    let n = 11 in
    let edges = ref [] in
    for v = 1 to n - 1 do
      edges := (Support.Rng.int rng v, v) :: !edges
    done;
    let d = D.of_edges ~n !edges in
    Alcotest.(check bool) "is out-forest" true (D.is_out_forest d);
    (* Hu = level list-schedule on the reversed in-forest. *)
    let hu = Sch.List_sched.makespan (D.reverse d) ~k:3 in
    let opt = Sch.Mu.exact_makespan d ~k:3 in
    Alcotest.(check int) "Hu optimal on out-trees" opt hu
  done

let test_exact_makespan_basics () =
  Alcotest.(check int) "chain" 6 (Sch.Mu.exact_makespan (chain 6) ~k:3);
  Alcotest.(check int) "independent" 2
    (Sch.Mu.exact_makespan (independent 6) ~k:3);
  Alcotest.(check int) "diamond k=2" 3 (Sch.Mu.exact_makespan (diamond ()) ~k:2);
  (* Figure 4 situation: two equal halves in series are unparallelizable
     across the seam. *)
  let serial = D.concat_serial (independent 4) (independent 4) in
  Alcotest.(check int) "serial halves, k=4" 2
    (Sch.Mu.exact_makespan serial ~k:4)

let test_mu_p_vs_mu () =
  (* Figure 4: assigning the first half to proc 0 and the second to proc 1
     is balanced but gives zero parallelism: mu_p = n/2 + n/2 = n... with
     unit halves of size 4: mu_p = 8 while mu = 4 (k = 2). *)
  let half = independent 4 in
  let d = D.concat_serial half half in
  let split = Array.init 8 (fun v -> if v < 4 then 0 else 1) in
  let mu = Sch.Mu.exact_makespan d ~k:2 in
  let mu_p = Sch.Mu.exact_makespan_fixed d split ~k:2 in
  Alcotest.(check int) "mu" 4 mu;
  Alcotest.(check int) "mu_p serial split" 8 mu_p;
  (* Interleaved assignment parallelizes perfectly. *)
  let interleave = Array.init 8 (fun v -> v mod 2) in
  Alcotest.(check int) "mu_p interleaved" 4
    (Sch.Mu.exact_makespan_fixed d interleave ~k:2)

let test_mu_p_greedy_upper_bound () =
  let rng = Support.Rng.create 17 in
  for _ = 1 to 15 do
    let d = random_dag rng ~n:10 ~p:0.2 in
    let assignment = Array.init 10 (fun _ -> Support.Rng.int rng 2) in
    let exact = Sch.Mu.exact_makespan_fixed d assignment ~k:2 in
    let greedy = Sch.Mu.greedy_fixed d assignment ~k:2 in
    Alcotest.(check bool) "greedy schedule valid" true
      (Sch.Schedule.is_valid ~k:2 d greedy);
    Alcotest.(check bool) "greedy respects partition" true
      (Sch.Schedule.respects_partition greedy assignment);
    Alcotest.(check bool) "greedy >= exact" true
      (Sch.Schedule.makespan greedy >= exact);
    Alcotest.(check bool) "exact >= mu" true
      (exact >= Sch.Mu.exact_makespan d ~k:2)
  done

let test_makespan_general_dispatch () =
  (match Sch.Mu.makespan_general (chain 5) ~k:3 with
  | Sch.Mu.Exact m -> Alcotest.(check int) "chain via forest route" 5 m
  | Sch.Mu.Bounds _ -> Alcotest.fail "chain should be exact");
  match Sch.Mu.makespan_general (diamond ()) ~k:2 with
  | Sch.Mu.Exact m -> Alcotest.(check int) "diamond via CG" 3 m
  | Sch.Mu.Bounds _ -> Alcotest.fail "k=2 should be exact"

let test_schedule_based_constraint () =
  let half = independent 4 in
  let d = D.concat_serial half half in
  let serial = Array.init 8 (fun v -> if v < 4 then 0 else 1) in
  let interleave = Array.init 8 (fun v -> v mod 2) in
  Alcotest.(check bool) "serial split infeasible (Def 5.4)" false
    (Sch.Mu.schedule_based_feasible ~eps:0.5 d serial ~k:2);
  Alcotest.(check bool) "interleaved feasible" true
    (Sch.Mu.schedule_based_feasible ~eps:0.0 d interleave ~k:2)

let test_dag_class_predicates () =
  Alcotest.(check bool) "chain is chain graph" true
    (D.is_chain_graph (chain 4));
  Alcotest.(check bool) "diamond not a forest" false
    (D.is_out_forest (diamond ()));
  (* Level-order: complete bipartite between layers. *)
  let lo = D.of_edges ~n:4 [ (0, 2); (0, 3); (1, 2); (1, 3) ] in
  Alcotest.(check bool) "level order" true (D.is_level_order lo);
  let not_lo = D.of_edges ~n:4 [ (0, 2); (0, 3); (1, 3) ] in
  Alcotest.(check bool) "not level order" false (D.is_level_order not_lo)

let test_transitive_reduction () =
  let d = D.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let r = D.transitive_reduction d in
  Alcotest.(check int) "redundant edge dropped" 2 (D.num_edges r);
  Alcotest.(check bool) "kept chain" true (D.has_edge r 0 1 && D.has_edge r 1 2);
  Alcotest.(check bool) "dropped shortcut" false (D.has_edge r 0 2)

let qcheck_exact_mu_between_bounds =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 9 in
      let* seed = int_bound 1_000_000 in
      let rng = Support.Rng.create seed in
      let edges = ref [] in
      for u = 0 to n - 2 do
        for v = u + 1 to n - 1 do
          if Support.Rng.bernoulli rng 0.3 then edges := (u, v) :: !edges
        done
      done;
      return (D.of_edges ~n !edges))
  in
  QCheck.Test.make ~name:"exact mu within [lower bound, list schedule]"
    ~count:60 (QCheck.make gen) (fun d ->
      let opt = Sch.Mu.exact_makespan d ~k:3 in
      Sch.Mu.lower_bound d ~k:3 <= opt && opt <= Sch.List_sched.makespan d ~k:3)

(* The heap-based list scheduler against the per-step re-sort it
   replaced (List_sched_reference): the same processor and time step for
   every node, on random DAGs of up to 60 nodes with priorities drawn
   from a range of 1 to 4 values (many ties, so the insertion order
   decides) or the default level priority, and k from 1 to 8. *)
let qcheck_list_sched_matches_reference =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 60 in
      let* p = float_range 0.0 0.2 in
      let* k = int_range 1 8 in
      let* values = int_range 0 4 in
      let* seed = int_bound 1_000_000 in
      let rng = Support.Rng.create seed in
      let edges = ref [] in
      for u = 0 to n - 2 do
        for v = u + 1 to n - 1 do
          if Support.Rng.bernoulli rng p then edges := (u, v) :: !edges
        done
      done;
      let priority =
        if values = 0 then None
        else Some (Array.init n (fun _ -> Support.Rng.int rng values))
      in
      return (D.of_edges ~n !edges, priority, k))
  in
  let print (d, priority, k) =
    Fmt.str "k=%d priority=%s@.%a" k
      (match priority with
      | None -> "level"
      | Some p -> String.concat "," (Array.to_list (Array.map string_of_int p)))
      D.pp d
  in
  QCheck.Test.make ~name:"list schedule = per-step re-sort reference"
    ~count:300 (QCheck.make ~print gen) (fun (d, priority, k) ->
      let s = Sch.List_sched.schedule ?priority d ~k in
      let r = List_sched_reference.schedule ?priority d ~k in
      List.for_all
        (fun v ->
          Sch.Schedule.proc s v = Sch.Schedule.proc r v
          && Sch.Schedule.time s v = Sch.Schedule.time r v)
        (List.init (D.num_nodes d) Fun.id))

let suite =
  [
    Alcotest.test_case "schedule validity" `Quick test_schedule_validity_checks;
    Alcotest.test_case "list schedule chain" `Quick test_list_schedule_chain;
    Alcotest.test_case "list schedule independent" `Quick
      test_list_schedule_independent;
    Alcotest.test_case "list schedule valid" `Quick
      test_list_schedule_always_valid;
    Alcotest.test_case "Coffman-Graham optimal (k=2)" `Slow
      test_coffman_graham_optimal_k2;
    Alcotest.test_case "Hu optimal on out-trees" `Slow
      test_hu_optimal_on_forests;
    Alcotest.test_case "exact makespan basics" `Quick test_exact_makespan_basics;
    Alcotest.test_case "mu_p vs mu (Figure 4)" `Quick test_mu_p_vs_mu;
    Alcotest.test_case "greedy mu_p bound" `Quick test_mu_p_greedy_upper_bound;
    Alcotest.test_case "makespan dispatch" `Quick test_makespan_general_dispatch;
    Alcotest.test_case "schedule-based constraint" `Quick
      test_schedule_based_constraint;
    Alcotest.test_case "DAG class predicates" `Quick test_dag_class_predicates;
    Alcotest.test_case "transitive reduction" `Quick test_transitive_reduction;
    QCheck_alcotest.to_alcotest qcheck_exact_mu_between_bounds;
    QCheck_alcotest.to_alcotest qcheck_list_sched_matches_reference;
  ]
