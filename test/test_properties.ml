(* Cross-module property tests (QCheck): invariants that tie the metrics,
   solvers, reductions and models together. *)

module H = Hypergraph
module P = Partition

(* Shared generators ---------------------------------------------------------- *)

let gen_hypergraph ~max_n ~max_m =
  QCheck.Gen.(
    let* n = int_range 2 max_n in
    let* m = int_range 1 max_m in
    let* seed = int_bound 1_000_000 in
    let rng = Support.Rng.create seed in
    let edges =
      Array.init m (fun _ ->
          let size = 2 + Support.Rng.int rng (min 4 (n - 1)) in
          Support.Rng.sample_distinct rng ~n ~k:size)
    in
    return (H.of_edges ~n edges))

let arb_hypergraph ~max_n ~max_m =
  QCheck.make
    ~print:(fun h -> Fmt.str "%a" H.pp h)
    (gen_hypergraph ~max_n ~max_m)

let gen_dag ~max_n =
  QCheck.Gen.(
    let* n = int_range 2 max_n in
    let* seed = int_bound 1_000_000 in
    let rng = Support.Rng.create seed in
    return (Workloads.Dag_gen.random rng ~n ~edge_probability:0.3))

let arb_dag ~max_n =
  QCheck.make ~print:(fun d -> Fmt.str "%a" Hyperdag.Dag.pp d) (gen_dag ~max_n)

(* Metric invariants ------------------------------------------------------------ *)

let prop_metric_sandwich =
  QCheck.Test.make ~name:"cutnet <= connectivity <= (k-1) * cutnet" ~count:100
    QCheck.(pair (arb_hypergraph ~max_n:12 ~max_m:10) small_int)
    (fun (h, seed) ->
      let rng = Support.Rng.create seed in
      let k = 2 + Support.Rng.int rng 3 in
      let p = P.random rng ~k ~n:(H.num_nodes h) in
      let cut = P.cutnet_cost h p and conn = P.connectivity_cost h p in
      cut <= conn && conn <= (k - 1) * cut || (cut = 0 && conn = 0))

let prop_lambda_range =
  QCheck.Test.make ~name:"1 <= lambda_e <= min(|e|, k)" ~count:100
    QCheck.(pair (arb_hypergraph ~max_n:12 ~max_m:10) small_int)
    (fun (h, seed) ->
      let rng = Support.Rng.create seed in
      let k = 2 + Support.Rng.int rng 3 in
      let p = P.random rng ~k ~n:(H.num_nodes h) in
      let ok = ref true in
      for e = 0 to H.num_edges h - 1 do
        let l = P.lambda h p e in
        if l < 1 || l > min (H.edge_size h e) k then ok := false
      done;
      !ok)

let prop_contraction_preserves_cost =
  QCheck.Test.make
    ~name:"cost(contract(h, label), p) = cost(h, p . label)" ~count:100
    QCheck.(pair (arb_hypergraph ~max_n:12 ~max_m:10) small_int)
    (fun (h, seed) ->
      let rng = Support.Rng.create seed in
      let n = H.num_nodes h in
      let groups = 1 + Support.Rng.int rng n in
      (* Surjective labeling. *)
      let label =
        Array.init n (fun v -> if v < groups then v else Support.Rng.int rng groups)
      in
      let coarse = H.contract h label groups in
      let cp = P.random rng ~k:3 ~n:groups in
      let fp =
        P.create ~k:3 (Array.map (fun l -> P.color cp l) label)
      in
      P.connectivity_cost coarse cp = P.connectivity_cost h fp
      && P.cutnet_cost coarse cp <= P.cutnet_cost h fp)

(* Solver invariants ------------------------------------------------------------ *)

let prop_exact_below_heuristics =
  QCheck.Test.make ~name:"exact optimum <= multilevel cost" ~count:25
    QCheck.(pair (arb_hypergraph ~max_n:10 ~max_m:8) small_int)
    (fun (h, seed) ->
      let rng = Support.Rng.create seed in
      let eps = 0.5 in
      match Solvers.Exact.optimum ~eps h ~k:2 with
      | None -> true
      | Some opt ->
          let ml =
            Solvers.Multilevel.partition
              ~config:{ Solvers.Multilevel.default_config with eps }
              rng h ~k:2
          in
          (not (P.is_balanced ~eps h ml))
          || opt <= P.connectivity_cost h ml)

let prop_optimum_monotone_in_eps =
  QCheck.Test.make ~name:"optimum non-increasing in eps" ~count:25
    (arb_hypergraph ~max_n:9 ~max_m:7)
    (fun h ->
      let opt eps = Solvers.Exact.optimum ~eps h ~k:2 in
      match (opt 0.0, opt 0.5, opt 1.0 (* eps < k-1 boundary excluded *)) with
      | Some a, Some b, Some c -> a >= b && b >= c
      | None, _, _ -> true (* strict eps=0 may be infeasible (odd n) *)
      | _, None, _ | _, _, None -> false)

let prop_refinement_never_worse =
  QCheck.Test.make ~name:"FM and KL never increase the cost" ~count:50
    QCheck.(pair (arb_hypergraph ~max_n:14 ~max_m:12) small_int)
    (fun (h, seed) ->
      let rng = Support.Rng.create seed in
      let p1 = Solvers.Initial.random_balanced ~eps:0.2 rng h ~k:2 in
      let p2 = P.copy p1 in
      let before = P.connectivity_cost h p1 in
      let fm =
        Solvers.Refine.refine
          ~config:{ Solvers.Refine.default_config with eps = 0.2 }
          h p1
      in
      let kl = Solvers.Kl_swap.refine h p2 in
      fm <= before && kl <= before)

(* HyperDAG invariants ------------------------------------------------------------ *)

let prop_hyperdag_edge_bound =
  QCheck.Test.make ~name:"hyperDAGs have |E| <= n - 1" ~count:100
    (arb_dag ~max_n:12) (fun dag ->
      let hg = Hyperdag.hypergraph_of_dag dag in
      H.num_edges hg <= H.num_nodes hg - 1 && Hyperdag.is_hyperdag hg)

let prop_layering_envelope =
  QCheck.Test.make ~name:"earliest <= latest, both valid layerings" ~count:100
    (arb_dag ~max_n:12) (fun dag ->
      let e = Hyperdag.Layering.earliest dag in
      let l = Hyperdag.Layering.latest dag in
      Hyperdag.Layering.is_valid dag e
      && Hyperdag.Layering.is_valid dag l
      && Array.for_all Fun.id (Array.mapi (fun v le -> le <= l.(v)) e))

let prop_mu_p_dominates_mu =
  QCheck.Test.make ~name:"mu <= mu_p for every fixed partition" ~count:50
    QCheck.(pair (arb_dag ~max_n:9) small_int)
    (fun (dag, seed) ->
      let rng = Support.Rng.create seed in
      let n = Hyperdag.Dag.num_nodes dag in
      let assignment = Array.init n (fun _ -> Support.Rng.int rng 2) in
      Scheduling.Mu.exact_makespan dag ~k:2
      <= Scheduling.Mu.exact_makespan_fixed dag assignment ~k:2)

(* Reduction invariants ------------------------------------------------------------ *)

let prop_eps_reduction_preserves_optimum =
  QCheck.Test.make ~name:"Lemma A.1 padding preserves the optimum" ~count:15
    (arb_hypergraph ~max_n:8 ~max_m:7)
    (fun h ->
      let red = Reductions.Eps_reduction.build ~eps:0.5 ~k:2 h in
      Solvers.Exact.optimum ~eps:0.5 h ~k:2
      = Solvers.Exact.optimum ~eps:0.0 (Reductions.Eps_reduction.padded red) ~k:2)

let prop_hierarchical_cost_bounds =
  QCheck.Test.make
    ~name:"connectivity <= hierarchical <= g1 * connectivity (Lemma 7.3)"
    ~count:50
    QCheck.(pair (arb_hypergraph ~max_n:12 ~max_m:10) small_int)
    (fun (h, seed) ->
      let rng = Support.Rng.create seed in
      let topo = Hierarchy.Topology.two_level ~b1:2 ~b2:2 ~g1:5.0 in
      let p = P.random rng ~k:4 ~n:(H.num_nodes h) in
      let lo, hi = Hierarchy.Hier_cost.connectivity_bounds topo h p in
      let c = Hierarchy.Hier_cost.cost topo h p in
      c >= lo -. 1e-9 && c <= hi +. 1e-9)

(* Gain-cache soundness: the cached-gain machinery in Refine is built on
   Pin_counts.move_delta being the exact cost difference, so pin it down
   under both metrics along random move sequences (each move also shifts
   the counts the next delta is computed from). *)
let prop_move_delta_exact =
  QCheck.Test.make
    ~name:"move_delta = recomputed cost difference (both metrics)" ~count:100
    QCheck.(pair (arb_hypergraph ~max_n:14 ~max_m:12) small_int)
    (fun (h, seed) ->
      let rng = Support.Rng.create seed in
      let n = H.num_nodes h in
      let k = 2 + Support.Rng.int rng 3 in
      let p = P.random rng ~k ~n in
      let pc = Solvers.Pin_counts.create h p in
      let ok = ref true in
      for _ = 1 to 30 do
        let v = Support.Rng.int rng n in
        let src = P.color p v in
        let dst = Support.Rng.int rng k in
        if src <> dst then begin
          let conn0 = P.connectivity_cost h p in
          let cut0 = P.cutnet_cost h p in
          let dconn = Solvers.Pin_counts.move_delta pc v ~src ~dst in
          let dcut =
            Solvers.Pin_counts.move_delta ~metric:P.Cut_net pc v ~src ~dst
          in
          (P.assignment p).(v) <- dst;
          Solvers.Pin_counts.move pc v ~src ~dst;
          if P.connectivity_cost h p - conn0 <> dconn then ok := false;
          if P.cutnet_cost h p - cut0 <> dcut then ok := false
        end
      done;
      !ok)

(* Bit-packed pin counts against the m×k matrix they replace
   (Pin_counts_reference), through [create] with and without [~reuse],
   random moves, [count], [lambda], [cost] and [move_delta] under both
   metrics.  The largest edge has 1, 2^b - 1 or 2^b pins, so the field
   width is 1, b or b + 1 and the largest edge can fill its field; k is
   1, 2, exactly one word of fields, one field into a second word, 64 or
   70.  A start puts every node in the last part, in one random part, or
   spreads them at random; half the moves go to the last part. *)
type packing_case = { largest : int; k : int; n : int; m : int; seed : int }

let gen_packing_case =
  QCheck.Gen.(
    let* b = int_range 1 6 in
    let* largest = oneofl [ 1; (1 lsl b) - 1; 1 lsl b ] in
    let width = ref 1 in
    while largest lsr !width > 0 do
      incr width
    done;
    let fields = 62 / !width in
    let* k = oneofl [ 1; 2; fields; fields + 1; 64; 70 ] in
    let* extra = int_range 0 6 in
    let* m = int_range 1 8 in
    let* seed = int_bound 1_000_000 in
    return { largest; k; n = largest + extra; m; seed })

let prop_packed_counts_match_matrix =
  let module Pc = Solvers.Pin_counts in
  let module Rc = Pin_counts_reference in
  let print c =
    Printf.sprintf "largest %d, k %d, n %d, m %d, seed %d" c.largest c.k c.n
      c.m c.seed
  in
  QCheck.Test.make ~name:"pin counts: packed = m×k reference" ~count:300
    (QCheck.make ~print gen_packing_case)
    (fun c ->
      let rng = Support.Rng.create c.seed in
      let edges =
        Array.init c.m (fun e ->
            let size =
              if e = 0 then c.largest else 1 + Support.Rng.int rng c.largest
            in
            Support.Rng.sample_distinct rng ~n:c.n ~k:size)
      in
      let h = H.of_edges ~n:c.n edges in
      let start () =
        P.create ~k:c.k
          (match Support.Rng.int rng 3 with
          | 0 -> Array.make c.n (c.k - 1)
          | 1 -> Array.make c.n (Support.Rng.int rng c.k)
          | _ -> Array.init c.n (fun _ -> Support.Rng.int rng c.k))
      in
      let metrics = [ P.Connectivity; P.Cut_net ] in
      let agree pc rc =
        let ok = ref true in
        for e = 0 to c.m - 1 do
          if Pc.lambda pc e <> Rc.lambda rc e then ok := false;
          for q = 0 to c.k - 1 do
            if Pc.count pc e q <> Rc.count rc e q then ok := false
          done
        done;
        List.for_all
          (fun metric -> Pc.cost ~metric pc = Rc.cost ~metric rc)
          metrics
        && !ok
      in
      let walk pc rc p =
        let ok = ref true in
        for _ = 1 to 30 do
          let v = Support.Rng.int rng c.n in
          let dst =
            if Support.Rng.bool rng then c.k - 1 else Support.Rng.int rng c.k
          in
          let src = P.color p v in
          List.iter
            (fun metric ->
              if
                Pc.move_delta ~metric pc v ~src ~dst
                <> Rc.move_delta ~metric rc v ~src ~dst
              then ok := false)
            metrics;
          Pc.move pc v ~src ~dst;
          Rc.move rc v ~src ~dst;
          (P.assignment p).(v) <- dst;
          if not (agree pc rc) then ok := false
        done;
        !ok
      in
      let p = start () in
      let pc = Pc.create h p and rc = Rc.create h p in
      let fresh_ok = agree pc rc && walk pc rc p in
      let q = start () in
      let reused = Pc.create ~reuse:pc h q and rq = Rc.create h q in
      fresh_ok && reused == pc && agree reused rq && walk reused rq q)

(* The exact Kernighan-Lin pass that Kl_swap's cached-gain pass must
   reproduce swap for swap: every candidate pair is priced by applying the
   first move, evaluating the second and undoing it, in the same pair
   order, with the same (delta, shared edges) tie-break, locks and
   rollback. *)
module Kl_reference = struct
  module Pc = Solvers.Pin_counts

  let boundary_nodes h p =
    let mark = Array.make (H.num_nodes h) false in
    for e = 0 to H.num_edges h - 1 do
      if P.is_cut h p e then H.iter_pins h e (fun v -> mark.(v) <- true)
    done;
    List.filter (fun v -> mark.(v)) (List.init (H.num_nodes h) Fun.id)
    |> Array.of_list

  let swap_delta metric counts a v u =
    let cv = a.(v) and cu = a.(u) in
    let d1 = Pc.move_delta ~metric counts v ~src:cv ~dst:cu in
    Pc.move counts v ~src:cv ~dst:cu;
    let d2 = Pc.move_delta ~metric counts u ~src:cu ~dst:cv in
    Pc.move counts v ~src:cu ~dst:cv;
    d1 + d2

  let apply_swap counts a v u =
    let cv = a.(v) and cu = a.(u) in
    Pc.move counts v ~src:cv ~dst:cu;
    a.(v) <- cu;
    Pc.move counts u ~src:cu ~dst:cv;
    a.(u) <- cv

  let shared_edges h v u =
    H.fold_incident h v (fun acc e -> if H.edge_mem h e u then acc + 1 else acc) 0

  let pass (cfg : Solvers.Kl_swap.config) h counts p =
    let a = P.assignment p in
    let boundary = boundary_nodes h p in
    let len = Array.length boundary in
    let locked = Array.make (H.num_nodes h) false in
    let limit =
      if cfg.max_swaps_per_pass > 0 then cfg.max_swaps_per_pass else len
    in
    let swaps = ref [] and cum = ref 0 and best_cum = ref 0 in
    let nswaps = ref 0 and best_len = ref 0 and continue = ref true in
    while !continue && !nswaps < limit do
      let best = ref None in
      for i = 0 to len - 1 do
        let v = boundary.(i) in
        if not locked.(v) then
          for j = i + 1 to len - 1 do
            let u = boundary.(j) in
            if
              (not locked.(u)) && a.(v) <> a.(u)
              && H.node_weight h v = H.node_weight h u
            then begin
              let d = swap_delta cfg.metric counts a v u in
              let s = shared_edges h v u in
              match !best with
              | Some (_, _, bd, bs) when bd < d || (bd = d && bs <= s) -> ()
              | _ -> best := Some (v, u, d, s)
            end
          done
      done;
      match !best with
      | None -> continue := false
      | Some (v, u, d, _) ->
          apply_swap counts a v u;
          locked.(v) <- true;
          locked.(u) <- true;
          swaps := (v, u) :: !swaps;
          incr nswaps;
          cum := !cum + d;
          if !cum < !best_cum then begin
            best_cum := !cum;
            best_len := !nswaps
          end
    done;
    List.iteri
      (fun i (v, u) -> if !nswaps - i > !best_len then apply_swap counts a v u)
      !swaps;
    - !best_cum

  let refine (cfg : Solvers.Kl_swap.config) h p =
    let counts = Pc.create h p in
    let passes = ref 0 and improving = ref true in
    while !improving && !passes < cfg.max_passes do
      incr passes;
      if pass cfg h counts p <= 0 then improving := false
    done;
    Pc.cost ~metric:cfg.metric counts
end

let prop_kl_matches_exact_evaluation =
  QCheck.Test.make ~name:"KL cached gains = exact evaluation, swap for swap"
    ~count:500
    QCheck.(pair (arb_hypergraph ~max_n:40 ~max_m:40) small_int)
    (fun (h, seed) ->
      let rng = Support.Rng.create seed in
      let n = H.num_nodes h and m = H.num_edges h in
      (* Reweight: node weights 1-2 exercise the equal-weight filter. *)
      let h =
        H.of_edges
          ~node_weights:(Array.init n (fun _ -> 1 + Support.Rng.int rng 2))
          ~edge_weights:(Array.init m (fun _ -> 1 + Support.Rng.int rng 3))
          ~n (H.edges h)
      in
      let k = 2 + Support.Rng.int rng 3 in
      let metric =
        if Support.Rng.int rng 2 = 0 then P.Connectivity else P.Cut_net
      in
      let max_swaps_per_pass =
        if Support.Rng.int rng 2 = 0 then 0 else 1 + Support.Rng.int rng 4
      in
      let config =
        { Solvers.Kl_swap.default_config with metric; max_swaps_per_pass }
      in
      let p1 = P.random rng ~k ~n in
      let p2 = P.copy p1 in
      let c1 = Solvers.Kl_swap.refine ~config h p1 in
      let c2 = Kl_reference.refine config h p2 in
      c1 = c2 && P.assignment p1 = P.assignment p2)

(* Workspace reuse is pure recycling: refining through a workspace dirtied
   by an unrelated solve must produce the same partition and cost as a
   fresh workspace (and as the internally allocated one).  So must
   refining after the workspace's pin counts were left by another
   partition of the same hypergraph, at the same k (refilled in place)
   and at another k (replaced). *)
let prop_workspace_reuse_deterministic =
  QCheck.Test.make ~name:"refine: dirty shared workspace = fresh workspace"
    ~count:50
    QCheck.(pair (arb_hypergraph ~max_n:16 ~max_m:14) small_int)
    (fun (h, seed) ->
      let rng = Support.Rng.create seed in
      let k = 2 + Support.Rng.int rng 2 in
      let base = P.random rng ~k ~n:(H.num_nodes h) in
      let config = { Solvers.Refine.default_config with eps = 0.2 } in
      let ws = Solvers.Workspace.create () in
      (* Dirty the workspace on an unrelated instance first. *)
      let other =
        let r2 = Support.Rng.create (seed + 17) in
        H.of_edges ~n:10
          (Array.init 8 (fun _ ->
               Support.Rng.sample_distinct r2 ~n:10
                 ~k:(2 + Support.Rng.int r2 3)))
      in
      ignore
        (Solvers.Refine.refine ~config ~workspace:ws other
           (P.random rng ~k ~n:(H.num_nodes other)));
      let p1 = P.copy base and p2 = P.copy base and p3 = P.copy base in
      let c1 = Solvers.Refine.refine ~config ~workspace:ws h p1 in
      let c2 =
        Solvers.Refine.refine ~config
          ~workspace:(Solvers.Workspace.create ())
          h p2
      in
      let c3 = Solvers.Refine.refine ~config h p3 in
      let after_dirty k' =
        ignore
          (Solvers.Refine.refine ~config ~workspace:ws h
             (P.random rng ~k:k' ~n:(H.num_nodes h)));
        let p = P.copy base in
        (Solvers.Refine.refine ~config ~workspace:ws h p, p)
      in
      let c4, p4 = after_dirty k in
      let c5, p5 = after_dirty (k + 1) in
      List.for_all (fun c -> c = c2) [ c1; c3; c4; c5 ]
      && List.for_all
           (fun p -> P.assignment p = P.assignment p2)
           [ p1; p3; p4; p5 ])

(* Gain rows stay exact.  With the ANALYSIS_DEBUG gate forced on, Refine
   checks every valid gain row against Pin_counts.move_delta after each
   FM pass, rollback included, and raises on a mismatch.  Edge sizes 2-8
   against k in 2-12 build rows from both sources of Λ(e) (the pins of an
   edge smaller than k, else its counts); sparse and dense instances give
   rollbacks short enough to patch the rows and long enough to
   invalidate them. *)
let prop_gain_rows_exact =
  QCheck.Test.make ~name:"refine: valid gain rows exact after every pass"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let n = 8 + Support.Rng.int rng 33 in
      let m = 1 + Support.Rng.int rng (2 * n) in
      let h =
        H.of_edges
          ~node_weights:(Array.init n (fun _ -> 1 + Support.Rng.int rng 2))
          ~edge_weights:(Array.init m (fun _ -> 1 + Support.Rng.int rng 3))
          ~n
          (Array.init m (fun _ ->
               Support.Rng.sample_distinct rng ~n
                 ~k:(2 + Support.Rng.int rng 7)))
      in
      let k = 2 + Support.Rng.int rng 11 in
      let metric =
        if Support.Rng.int rng 2 = 0 then P.Connectivity else P.Cut_net
      in
      let config = { Solvers.Refine.eps = 0.2; metric } in
      let was = Analysis_core.Debug.enabled () in
      Analysis_core.Debug.force true;
      Fun.protect
        ~finally:(fun () -> Analysis_core.Debug.force was)
        (fun () ->
          ignore (Solvers.Refine.refine ~config h (P.random rng ~k ~n));
          true))

(* A bulk rollback to the pass start restores the rows the pass seeded.
   Small dense instances (m ≫ n) make rollbacks long enough to take the
   bulk path and seeding cheap enough to snapshot, and node weights above
   the ε = 0.03 slack make most passes end where they started, as on the
   benchmark's dense coarsest levels.  Most edges stay inside one of k
   planted clusters and the start is the clustering with a few nodes
   flipped, so some nodes start interior: a pass activates them and builds
   their rows, and only the stamp bump retires those rows when it rolls
   back.  With the ANALYSIS_DEBUG gate forced on, every restored row (and
   every other valid one) is checked against Pin_counts.move_delta after
   each pass. *)
let prop_restored_rows_exact =
  QCheck.Test.make
    ~name:"refine: rows restored after a rollback to the pass start exact"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let k = 2 + Support.Rng.int rng 3 in
      let n = (3 * k) + Support.Rng.int rng 9 in
      let m = n * (6 + Support.Rng.int rng 7) in
      let clusters =
        Array.init k (fun c ->
            Array.of_list (List.filter (fun v -> v mod k = c) (List.init n Fun.id)))
      in
      let edge _ =
        if Support.Rng.int rng 8 > 0 then begin
          let members = clusters.(Support.Rng.int rng k) in
          let size =
            2 + Support.Rng.int rng (min 3 (Array.length members - 1))
          in
          Array.map
            (fun i -> members.(i))
            (Support.Rng.sample_distinct rng ~n:(Array.length members) ~k:size)
        end
        else Support.Rng.sample_distinct rng ~n ~k:(2 + Support.Rng.int rng 3)
      in
      let h =
        H.of_edges
          ~node_weights:(Array.init n (fun _ -> 1 + Support.Rng.int rng 4))
          ~edge_weights:(Array.init m (fun _ -> 1 + Support.Rng.int rng 3))
          ~n (Array.init m edge)
      in
      let colors = Array.init n (fun v -> v mod k) in
      for _ = 0 to Support.Rng.int rng 3 do
        colors.(Support.Rng.int rng n) <- Support.Rng.int rng k
      done;
      let metric =
        if Support.Rng.int rng 2 = 0 then P.Connectivity else P.Cut_net
      in
      let config = { Solvers.Refine.eps = 0.03; metric } in
      let was = Analysis_core.Debug.enabled () in
      Analysis_core.Debug.force true;
      Fun.protect
        ~finally:(fun () -> Analysis_core.Debug.force was)
        (fun () ->
          ignore (Solvers.Refine.refine ~config h (P.create ~k colors));
          true))

(* Document readers ------------------------------------------------------------ *)

(* One document of each kind the program reads, as its own writer
   renders it (a manifest has no writer, so its document is written
   here), with the reader that takes it back and what the undamaged
   text must read as. *)
type reader =
  | Reader : {
      name : string;
      text : string;
      read : string -> ('a, string) result;
      written : 'a;
    }
      -> reader

let from_json decode text = Result.bind (Obs.Json.parse text) decode

let reader name to_json decode written =
  Reader
    { name; text = Obs.Json.to_string (to_json written);
      read = from_json decode; written }

let reader_job =
  {
    Engine.Spec.instance = Engine.Spec.Generated { kind = Planted; n = 40 };
    config = { k = 3; eps = 0.1; algorithm = Fm; metric = P.Cut_net };
    seed = 7;
    timeout_s = Some 2.5;
  }

let reader_record status timing =
  {
    Engine.Record.fingerprint = Engine.Fingerprint.digest "reader";
    job = reader_job;
    status;
    metrics = [ ("cost", Obs.Json.Int 12); ("ratio", Obs.Json.Float 0.25) ];
    observed =
      Some (Obs.Json.Obj [ ("counters", Obs.Json.Obj [ ("fm.moves", Obs.Json.Int 3) ]) ]);
    timing;
  }

let reader_report =
  let timed = { Engine.Record.wall_s = 0.5; attempts = 2; worker = 1; threads = 2 } in
  {
    Engine.Batch.outcomes =
      [
        { record = reader_record Done Engine.Record.no_timing; cached = true };
        { record = reader_record (Timed_out 2.5) timed; cached = false };
      ];
    stats =
      { total = 2; from_cache = 1; ok = 1; failed = 0; timeouts = 1;
        crashes = 0; skipped = 0; retries = 1; cache = None };
    wall_s = 1.5;
  }

let reader_manifest =
  let open Obs.Json in
  let text =
    to_string
      (Obj
         [
           ("schema", Str Engine.Manifest.schema_version);
           ( "defaults",
             Obj
               [ ("k", Int 4); ("eps", Float 0.1); ("algorithm", Str "fm");
                 ("metric", Str "cutnet"); ("seed", Int 3); ("timeout_s", Float 30.0) ] );
           ( "instances",
             Arr
               [ Obj [ ("file", Str "a.hgr") ]; Obj [ ("dag", Str "b.dag") ];
                 Obj [ ("generate", Str "planted"); ("n", Int 40) ];
                 Obj [ ("experiment", Str "E1") ];
                 Obj [ ("spin", Float 0.5); ("timeout_s", Float 1.0) ];
                 Obj [ ("crash", Int 66) ] ] );
           ( "configs",
             Arr
               [ Obj [ ("k", Int 2) ];
                 Obj [ ("eps", Float 0.2); ("algorithm", Str "recursive");
                       ("metric", Str "connectivity") ] ] );
           ("seeds", Arr [ Int 1; Int 2 ]);
         ])
  in
  let open Engine.Spec in
  let base = { k = 4; eps = 0.1; algorithm = Fm; metric = P.Cut_net } in
  let configs =
    [ { base with k = 2 };
      { base with eps = 0.2; algorithm = Recursive; metric = P.Connectivity } ]
  in
  let swept instance =
    List.concat_map
      (fun config ->
        List.map (fun seed -> { instance; config; seed; timeout_s = Some 30.0 }) [ 1; 2 ])
      configs
  in
  let pinned instance timeout_s =
    { instance; config = default_config; seed = 0; timeout_s = Some timeout_s }
  in
  Reader
    {
      name = "manifest";
      text;
      read = Engine.Manifest.of_string ~known_experiments:[ "E1" ];
      written =
        swept (Hmetis_file "a.hgr") @ swept (Dag_file "b.dag")
        @ swept (Generated { kind = Planted; n = 40 })
        @ [ pinned (Experiment "E1") 30.0; pinned (Spin 0.5) 1.0; pinned (Crash 66) 30.0 ];
    }

(* A certificate over one solver entry point; it reads back as no DOM11
   finding. *)
let reader_certificate =
  let open Analysis_dom in
  let solver =
    {
      Front_typed.u_module = "Multilevel";
      u_file = "lib/solvers/multilevel.ml";
      u_has_mli = true;
      u_globals = [];
      u_funcs =
        [ { f_module = "Multilevel"; f_name = "solve"; f_line = 1; f_refs = [];
            f_ret_mentions = []; f_writes = []; f_local_mut = true } ];
      u_escapes = [];
      u_obs_emits = [];
      u_random_uses = [];
      u_aliases = [];
    }
  in
  let effects = Effects.compute ~cg:(Callgraph.compute [ solver ]) [ solver ] in
  Reader
    {
      name = "effects certificate";
      text = Effects.certificate effects;
      read =
        (fun certificate ->
          match
            Effects.stale_findings ~certificate_path:"analysis/effects.json"
              ~certificate effects
          with
          | [] -> Ok ()
          | f :: _ -> Error f.Lint.Rules.message);
      written = ();
    }

let readers =
  let module Pr = Server.Protocol in
  let module S = Obs.Schema in
  let span =
    { S.id = 5; parent = Some 2; name = "refine"; path = "multilevel/refine";
      depth = 1; start_ns = 123L; dur_ns = 42L;
      attrs = [ ("label", S.Str "x"); ("n", S.Int (-7)); ("ratio", S.Float 0.25);
                ("ok", S.Bool true) ];
      trace = Some "0123456789abcdef" }
  in
  [ reader "job" Engine.Spec.to_json Engine.Spec.of_json reader_job;
    reader "record" (Engine.Record.to_json ~deterministic:false) Engine.Record.of_json
      (reader_record (Failed "boom")
         { wall_s = 0.25; attempts = 1; worker = 0; threads = 0 });
    reader "payload" Engine.Record.payload_to_json Engine.Record.payload_of_json
      { Engine.Record.p_status = `Failed "boom";
        p_metrics = [ ("n", Obs.Json.Int 40) ];
        p_observed = Some (Obs.Json.Obj []) };
    reader "batch report"
      (Engine.Batch.report_to_json ~deterministic:false ~jobs:1)
      (fun j ->
        Result.map
          (fun outcomes -> { reader_report with outcomes })
          (Engine.Batch.check_report j))
      reader_report;
    reader_manifest;
    reader_certificate ]
  @ List.map
      (fun r -> reader "request" Pr.request_to_json Pr.request_of_json r)
      [ Pr.Submit { id = 3; job = reader_job }; Pr.Status { id = 1 };
        Pr.Result { id = 2 }; Pr.Cancel { id = 4 }; Pr.Stats; Pr.Shutdown ]
  @ List.map
      (fun r -> reader "response" Pr.response_to_json Pr.response_of_json r)
      [ Pr.Ack { id = 1; fingerprint = "ab12"; position = 2 };
        Pr.Busy { id = 2; reason = Pr.Queue_full; queue_depth = 64 };
        Pr.Info { id = 5; state = Pr.Queued; position = Some 3 };
        Pr.Info { id = 6; state = Pr.Running; position = None };
        Pr.Result_frame
          { id = 7; source = Pr.Collapsed;
            record = Engine.Record.to_json (reader_record Done Engine.Record.no_timing) };
        Pr.Cancelled { id = 8 };
        Pr.Stats_frame (Obs.Json.Obj [ ("uptime_s", Obs.Json.Float 1.0) ]);
        Pr.Error_frame { id = Some 9; message = "nope" };
        Pr.Error_frame { id = None; message = "bad frame" };
        Pr.Bye ]
  @ List.map
      (fun r -> reader "trace/2 record" S.to_json S.of_json r)
      [ S.Meta { trace = Some "fp-1"; parent_span = Some 7; pid = Some 4242 };
        S.Span span;
        S.Counter { name = "fm.moves"; value = 17 };
        S.Gauge { name = "gc.heap_words"; value = 4096.0 };
        S.Histogram
          { name = "cost"; stat = { h_count = 3; h_sum = 10.5; h_min = 1.0;
                                    h_max = 6.25; h_last = 3.25 } };
        S.Provenance [ ("hostname", Obs.Json.Str "h"); ("workers", Obs.Json.Int 2) ] ]

(* The nodes of a document in pre-order. *)
let rec json_nodes = function
  | Obs.Json.Arr items -> 1 + List.fold_left (fun n v -> n + json_nodes v) 0 items
  | Obs.Json.Obj fields ->
      1 + List.fold_left (fun n (_, v) -> n + json_nodes v) 0 fields
  | _ -> 1

(* [j] with its [n]-th node in pre-order replaced by what [f] makes of
   it; [None] drops the node from its object or array. *)
let edit_node n f j =
  let next = ref 0 in
  let rec go v =
    let here = !next in
    incr next;
    if here = n then f v
    else
      match v with
      | Obs.Json.Arr items -> Some (Obs.Json.Arr (List.filter_map go items))
      | Obs.Json.Obj fields ->
          Some
            (Obs.Json.Obj
               (List.filter_map
                  (fun (k, x) -> Option.map (fun x -> (k, x)) (go x))
                  fields))
      | leaf -> Some leaf
  in
  Option.value ~default:Obs.Json.Null (go j)

let json_kinds =
  Obs.Json.[ Null; Bool false; Int 3; Float 0.5; Str "x"; Arr []; Obj [] ]

let same_kind a b =
  match (a, b) with
  | Obs.Json.Null, Obs.Json.Null
  | Bool _, Bool _ | Int _, Int _ | Float _, Float _ | Str _, Str _
  | Arr _, Arr _ | Obj _, Obj _ ->
      true
  | _ -> false

(* Each reader takes back what its writer wrote, and reads a damaged
   document (a field or element dropped, a value replaced by every
   other JSON kind, the text cut at a byte, the document wrapped in an
   array) to a result, never an exception. *)
let prop_readers_total =
  QCheck.Test.make ~name:"every JSON reader is total" ~count:1000
    QCheck.(
      triple (int_bound (List.length readers - 1)) (int_bound 3)
        (int_bound 1_000_000))
    (fun (which, damage, at) ->
      let (Reader r) = List.nth readers which in
      (match r.read r.text with
      | Ok v when v = r.written -> ()
      | Ok _ -> QCheck.Test.fail_reportf "%s: read back differs" r.name
      | Error e -> QCheck.Test.fail_reportf "%s: rejected: %s" r.name e);
      let doc =
        match Obs.Json.parse r.text with
        | Ok doc -> doc
        | Error e -> QCheck.Test.fail_reportf "%s: %s" r.name e
      in
      let nodes = json_nodes doc in
      let damaged =
        match damage with
        | 0 when nodes > 1 ->
            [ edit_node (1 + (at mod (nodes - 1))) (fun _ -> None) doc ]
        | 1 ->
            List.map
              (fun kind ->
                edit_node (at mod nodes)
                  (fun v -> Some (if same_kind v kind then v else kind))
                  doc)
              json_kinds
        | 3 -> [ Obs.Json.Arr [ doc ] ]
        | _ -> []
      in
      let texts =
        if damage = 2 then [ String.sub r.text 0 (at mod String.length r.text) ]
        else List.map Obs.Json.to_string damaged
      in
      List.iter (fun text -> ignore (r.read text : (_, string) result)) texts;
      true)

let suite =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_metric_sandwich;
      prop_lambda_range;
      prop_move_delta_exact;
      prop_packed_counts_match_matrix;
      prop_workspace_reuse_deterministic;
      prop_gain_rows_exact;
      prop_restored_rows_exact;
      prop_contraction_preserves_cost;
      prop_exact_below_heuristics;
      prop_optimum_monotone_in_eps;
      prop_refinement_never_worse;
      prop_kl_matches_exact_evaluation;
      prop_hyperdag_edge_bound;
      prop_layering_envelope;
      prop_mu_p_dominates_mu;
      prop_eps_reduction_preserves_optimum;
      prop_hierarchical_cost_bounds;
      prop_readers_total;
    ]
