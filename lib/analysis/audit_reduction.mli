(** Output-shape audit for the reduction builders of [lib/reductions].

    Each function takes a built reduction plus the source-instance data
    needed to evaluate the claimed correspondence (a selection of edges, a
    matching, …) and checks the structural guarantees of the appendix
    that defines the construction: gadget sizes and degrees, balance of
    embedded solutions, and the cost equalities (OPT correspondences) that
    make the reduction a reduction. *)

val rules : (string * string) list

val audit_spes :
  graph:Npc.Graph.t ->
  selection:int array ->
  Reductions.Spes_to_partition.t ->
  Check.report
(** Theorem 4.1 / Lemma C.1 block-gadget reduction: the embedded selection
    must be balanced within the construction's capacity, cost exactly the
    covered vertices, and round-trip through [extract]. *)

val audit_spes_delta2 :
  graph:Npc.Graph.t ->
  hyperdag:bool ->
  selection:int array ->
  Reductions.Spes_to_partition.t ->
  Check.report
(** Lemma C.6 grid-gadget form ({!Reductions.Spes_to_partition.build_delta2}):
    additionally Δ ≤ 2, and a hyperDAG when built with [~hyperdag:true]
    (Appendix C.3). *)

val audit_mpu :
  selection:int array -> Reductions.Spes_to_partition.t -> Check.report
(** Appendix C.5 Minimum p-Union form, at any k: embedded cost =
    |union|. *)

val audit_eps_reduction :
  Hypergraph.t -> Partition.t -> Reductions.Eps_reduction.t -> Check.report
(** Lemma A.1: padding is isolated-nodes-only and [extend]/[restrict]
    preserve cost exactly. *)

val audit_three_dm :
  matching:(int * int * int) list option ->
  Reductions.Assignment_from_three_dm.t ->
  Check.report
(** Lemma H.2: depth-2 topology with b₂ = 3, k = 3q part-nodes, and a
    perfect matching embeds to an assignment achieving the target gain. *)

val audit_sched_three_partition :
  solution:(int * int * int) list ->
  Reductions.Sched_from_three_partition.t ->
  Check.report
(** Theorem 5.5: a 3-partition solution embeds to a valid schedule on the
    fixed processor assignment with the zero-idle makespan n/2. *)

val audit_hyperdag_np_hard :
  original:Hypergraph.t ->
  part:Partition.t ->
  Reductions.Hyperdag_np_hard.t ->
  Check.report
(** Lemma B.3: the derived instance is a hyperDAG and [extend] preserves
    connectivity cost exactly. *)
