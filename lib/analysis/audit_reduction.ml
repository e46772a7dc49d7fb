(* Output-shape audits for the reduction builders (Appendices A, C, D, H
   and Theorem 5.5).  Each audit re-derives the claimed correspondence on
   concrete data: embedded solutions must be balanced, cost exactly what
   the lemma says they cost, and survive the extract cleanup. *)

module Check = Analysis_core.Check
module Audit_hg = Analysis_core.Audit_hg
module Audit_partition = Analysis_core.Audit_partition

let rules =
  [
    ( "RED-SPES-BALANCE",
      "embedded SpES selection stays within the gadget capacity (Lemma C.1 \
       block sizing)" );
    ( "RED-SPES-COST",
      "cost of the embedded selection = covered vertices (Thm 4.1 / Lemma \
       C.1 OPT correspondence)" );
    ( "RED-SPES-ROUNDTRIP",
      "extract recovers the embedded edge selection (Lemma C.1 cleanup)" );
    ( "RED-DELTA2-DEG",
      "grid-gadget construction has max degree <= 2 (Lemma C.6)" );
    ( "RED-DELTA2-HYPERDAG",
      "padded grid construction is a hyperDAG (Appendix C.3)" );
    ("RED-MPU-COST", "embedded MpU selection costs |union| (Appendix C.5)");
    ( "RED-MPU-ROUNDTRIP",
      "extract recovers the embedded MpU selection (Appendix C.5)" );
    ( "RED-EPS-SHAPE",
      "Lemma A.1 padding adds isolated unit-weight nodes only" );
    ( "RED-EPS-COST",
      "extend / restrict preserve cost exactly and round-trip (Lemma A.1)" );
    ( "RED-3DM-TOPO",
      "assignment instance has a depth-2 topology with b2 = 3 over k = 3q \
       part-nodes (Lemma H.2)" );
    ( "RED-3DM-GAIN",
      "a perfect matching embeds to an assignment achieving the target \
       gain (Lemma H.2)" );
    ( "RED-SCHED-TARGET",
      "a 3-partition solution embeds to a valid zero-idle schedule of \
       makespan n/2 on the fixed assignment (Thm 5.5)" );
    ("RED-HDNP-DAG", "Lemma B.3 output is a hyperDAG with eps' > 0");
    ( "RED-HDNP-COST",
      "Lemma B.3 extend preserves connectivity cost exactly" );
  ]

let sorted_copy a =
  let c = Array.copy a in
  Array.sort Int.compare c;
  c

(* SpES objective of a selection, from the source graph directly. *)
let covered_vertices graph selection =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun e ->
      let u, v = (Npc.Graph.edges graph).(e) in
      Hashtbl.replace seen u ();
      Hashtbl.replace seen v ())
    selection;
  Hashtbl.length seen

let heaviest_part hg part =
  Array.fold_left max 0 (Partition.part_weights hg part)

let spes_common ctx ~graph ~selection ~hg ~capacity ~embed ~extract =
  let part = embed selection in
  Check.rule ctx ~id:"RED-SPES-BALANCE"
    (heaviest_part hg part <= capacity)
    (fun () ->
      Printf.sprintf "embedded partition has a part of weight %d > capacity %d"
        (heaviest_part hg part) capacity);
  let cost = Audit_partition.recompute_cost Partition.Cut_net hg part in
  let covered = covered_vertices graph selection in
  Check.rule ctx ~id:"RED-SPES-COST" (cost = covered) (fun () ->
      Printf.sprintf "embedded cost %d but the selection covers %d vertices"
        cost covered);
  Check.rule ctx ~id:"RED-SPES-ROUNDTRIP"
    (sorted_copy (extract part) = sorted_copy selection)
    (fun () -> "extract does not recover the embedded edge selection")

let audit_spes ~graph ~selection red =
  let hg = Reductions.Spes_to_partition.hypergraph red in
  let ctx = Check.create ~subject:"SpES -> partition (Lemma C.1)" in
  spes_common ctx ~graph ~selection ~hg
    ~capacity:(Reductions.Spes_to_partition.capacity red)
    ~embed:(Reductions.Spes_to_partition.embed red)
    ~extract:(Reductions.Spes_to_partition.extract red);
  Check.merge ~subject:"SpES -> partition (Lemma C.1)"
    [ Audit_hg.audit hg; Check.report ctx ]

let audit_spes_delta2 ~graph ~hyperdag ~selection red =
  let hg = Reductions.Spes_to_partition.hypergraph red in
  let ctx = Check.create ~subject:"SpES -> partition, Delta=2 (Lemma C.6)" in
  spes_common ctx ~graph ~selection ~hg
    ~capacity:(Reductions.Spes_to_partition.capacity red)
    ~embed:(Reductions.Spes_to_partition.embed red)
    ~extract:(Reductions.Spes_to_partition.extract red);
  Check.rule ctx ~id:"RED-DELTA2-DEG"
    (Hypergraph.max_degree hg <= 2)
    (fun () ->
      Printf.sprintf "max degree %d > 2" (Hypergraph.max_degree hg));
  if hyperdag then
    Check.rule ctx ~id:"RED-DELTA2-HYPERDAG"
      (Hyperdag.is_hyperdag hg)
      (fun () -> "padded construction is not a hyperDAG");
  Check.merge ~subject:"SpES -> partition, Delta=2 (Lemma C.6)"
    [ Audit_hg.audit hg; Check.report ctx ]

let audit_mpu ~selection red =
  let hg = Reductions.Spes_to_partition.hypergraph red in
  let ctx = Check.create ~subject:"MpU -> partition (Appendix C.5)" in
  let part = Reductions.Spes_to_partition.embed red selection in
  let cost = Audit_partition.recompute_cost Partition.Cut_net hg part in
  let union = Reductions.Spes_to_partition.union_size red selection in
  Check.rule ctx ~id:"RED-MPU-COST" (cost = union) (fun () ->
      Printf.sprintf "embedded cost %d but the union has size %d" cost union);
  Check.rule ctx ~id:"RED-MPU-ROUNDTRIP"
    (sorted_copy (Reductions.Spes_to_partition.extract red part)
    = sorted_copy selection)
    (fun () -> "extract does not recover the embedded selection");
  Check.merge ~subject:"MpU -> partition (Appendix C.5)"
    [ Audit_hg.audit hg; Check.report ctx ]

let audit_eps_reduction original part red =
  let padded = Reductions.Eps_reduction.padded red in
  let ctx = Check.create ~subject:"eps-reduction (Lemma A.1)" in
  let n = Hypergraph.num_nodes original in
  let n' = Hypergraph.num_nodes padded in
  let shape_ok =
    n' >= n
    && Hypergraph.num_edges padded = Hypergraph.num_edges original
    &&
    let ok = ref true in
    for v = n to n' - 1 do
      if Hypergraph.node_degree padded v <> 0 || Hypergraph.node_weight padded v <> 1
      then ok := false
    done;
    !ok
  in
  Check.rule ctx ~id:"RED-EPS-SHAPE" shape_ok (fun () ->
      "padding changed edges or added non-isolated / non-unit nodes");
  let extended = Reductions.Eps_reduction.extend red part in
  let back = Reductions.Eps_reduction.restrict red extended in
  let cost p hg = Audit_partition.recompute_cost Partition.Connectivity hg p in
  Check.rule ctx ~id:"RED-EPS-COST"
    (cost part original = cost extended padded && Partition.equal back part)
    (fun () ->
      Printf.sprintf "cost %d became %d after extension, or restrict lost it"
        (cost part original) (cost extended padded));
  Check.merge ~subject:"eps-reduction (Lemma A.1)"
    [ Audit_hg.audit padded; Check.report ctx ]

let audit_three_dm ~matching red =
  let topo = Reductions.Assignment_from_three_dm.topology red in
  let hg = Reductions.Assignment_from_three_dm.hypergraph red in
  let ctx = Check.create ~subject:"3DM -> assignment (Lemma H.2)" in
  let b = Hierarchy.Topology.branching topo in
  Check.rule ctx ~id:"RED-3DM-TOPO"
    (Array.length b = 2
    && b.(1) = 3
    && Hierarchy.Topology.num_leaves topo = Hypergraph.num_nodes hg
    && Hypergraph.num_nodes hg mod 3 = 0)
    (fun () ->
      Printf.sprintf "topology is not (q, 3) over k = %d part-nodes"
        (Hypergraph.num_nodes hg));
  (match matching with
  | None -> ()
  | Some m ->
      let leaf_assignment = Reductions.Assignment_from_three_dm.embed red m in
      let gain = Reductions.Assignment_from_three_dm.gain red leaf_assignment in
      let target = Reductions.Assignment_from_three_dm.target_gain red in
      Check.rule ctx ~id:"RED-3DM-GAIN" (gain = target) (fun () ->
          Printf.sprintf "matching embeds to gain %d, target %d" gain target));
  Check.merge ~subject:"3DM -> assignment (Lemma H.2)"
    [ Audit_hg.audit hg; Check.report ctx ]

let audit_sched_three_partition ~solution red =
  let dag = Reductions.Sched_from_three_partition.dag red in
  let assignment = Reductions.Sched_from_three_partition.assignment red in
  let sched = Reductions.Sched_from_three_partition.embed red solution in
  let ctx = Check.create ~subject:"3-Partition -> mu_p (Thm 5.5)" in
  Check.rule ctx ~id:"RED-SCHED-TARGET"
    (Scheduling.Schedule.makespan sched
     = Reductions.Sched_from_three_partition.target red)
    (fun () ->
      Printf.sprintf "embedded makespan %d, target %d"
        (Scheduling.Schedule.makespan sched)
        (Reductions.Sched_from_three_partition.target red));
  Check.merge ~subject:"3-Partition -> mu_p (Thm 5.5)"
    [
      Audit_schedule.audit ~k:2 ~assignment dag sched;
      Check.report ctx;
    ]

let audit_hyperdag_np_hard ~original ~part red =
  let hg = Reductions.Hyperdag_np_hard.hypergraph red in
  let ctx = Check.create ~subject:"hyperDAG NP-hardness (Lemma B.3)" in
  Check.rule ctx ~id:"RED-HDNP-DAG"
    (Hyperdag.is_hyperdag hg && Reductions.Hyperdag_np_hard.eps' red > 0.0)
    (fun () -> "derived instance is not a hyperDAG with eps' > 0");
  let extended = Reductions.Hyperdag_np_hard.extend red part in
  let cost p g = Audit_partition.recompute_cost Partition.Connectivity g p in
  Check.rule ctx ~id:"RED-HDNP-COST"
    (cost part original = cost extended hg)
    (fun () ->
      Printf.sprintf "cost %d became %d on the hyperDAG instance"
        (cost part original) (cost extended hg));
  Check.merge ~subject:"hyperDAG NP-hardness (Lemma B.3)"
    [ Audit_hg.audit hg; Check.report ctx ]
