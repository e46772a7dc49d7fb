(* E16 — Multi-constraint algorithms (Lemma 6.2): the Lemma D.1 reduction
   to standard k-section and the multi-constraint XP decision agree with
   brute force on small instances; the constrained local-search solver
   scales beyond them. *)

let run () =
  let rows =
    List.map
      (fun seed ->
        let rng = Support.Rng.create seed in
        let hg =
          Workloads.Rand_hg.uniform rng ~n:6 ~m:5 ~min_size:2 ~max_size:3
        in
        let mc =
          Partition.Multi_constraint.create [| [| 0; 1 |]; [| 2; 3; 4; 5 |] |]
        in
        (* eps = 1 leaves only the class constraints binding at k = 2. *)
        let reference =
          Option.map
            (fun r -> r.Solvers.Exact.cost)
            (Solvers.Exact.brute_force ~eps:1.0
               ~feasible:(Partition.Multi_constraint.feasible ~eps:0.0 mc)
               (Metric Partition.Connectivity) hg ~k:2)
        in
        let xp =
          match reference with
          | Some opt when opt <= 3 -> (
              match
                Solvers.Xp.decision_multi ~eps:0.0 hg ~k:2 ~constraints:mc
                  ~cost_limit:opt
              with
              | Some _ ->
                  Table.Bool
                    (opt = 0
                    || Solvers.Xp.decision_multi ~eps:0.0 hg ~k:2
                         ~constraints:mc ~cost_limit:(opt - 1)
                       = None)
              | None -> Table.Bool false)
          | _ -> Table.Str "n/a"
        in
        let exact_constrained =
          let inst =
            Solvers.Constrained.of_multi_constraint ~eps:0.0 ~k:2 mc ~n:6
          in
          match Solvers.Exact.solve ~eps:1.0 ~constrained:inst hg ~k:2 with
          | Some { Solvers.Exact.cost; _ } -> Some cost
          | None -> None
        in
        [
          Table.Int seed;
          Table.Str
            (match reference with Some v -> string_of_int v | None -> "-");
          xp;
          Table.Str
            (match exact_constrained with
            | Some v -> string_of_int v
            | None -> "-");
          Table.Bool (reference = exact_constrained);
        ])
      [ 1; 2; 3; 4; 5 ]
  in
  Table.print
    ~title:"E16: multi-constraint algorithms agree (Lemma 6.2 / App D.2)"
    ~anchor:"Lemma 6.2: XP for c = O(1); class-capacity B&B as ground truth"
    ~columns:
      [ "seed"; "brute-force OPT"; "XP tight"; "exact+caps"; "agree" ]
    rows;
  Table.note
    "exact+caps runs with a loose overall balance (eps = 1) so only the class constraints bind, matching the brute-force reference."
