(* Library root: the experiment harness.  Each module regenerates the
   series/rows of one paper anchor (see DESIGN.md's per-experiment index
   and EXPERIMENTS.md for paper-vs-measured notes). *)

module Table = Table
module E1 = Exp_e1
module E2 = Exp_e2
module E3 = Exp_e3
module E4 = Exp_e4
module E5 = Exp_e5
module E6 = Exp_e6
module E7 = Exp_e7
module E8 = Exp_e8
module E9 = Exp_e9
module E10 = Exp_e10
module E11 = Exp_e11
module E12 = Exp_e12
module E13 = Exp_e13
module E14 = Exp_e14
module E15 = Exp_e15
module E16 = Exp_e16

let all =
  [
    ("E1", "hyperDAG cost-model accuracy (Fig 1, Sec 3.2, App B)", E1.run);
    ("E2", "SpES reduction roundtrip (Thm 4.1, Fig 3)", E2.run);
    ("E3", "gadget integrity (Lemma A.5, Lemma C.3)", E3.run);
    ("E4", "balance-constraint limits (Figs 4 & 6)", E4.run);
    ("E5", "mu vs mu_p (Thm 5.5)", E5.run);
    ("E6", "Orthogonal Vectors reduction (Thm 6.4)", E6.run);
    ("E7", "recursive vs direct partitioning (Lemma 7.2, Fig 8)", E7.run);
    ("E8", "two-step method (Lemma 7.3, Thm 7.4, Fig 9)", E8.run);
    ("E9", "hierarchy assignment (Thm 7.5, App H)", E9.run);
    ("E10", "the XP algorithm (Lemma 4.3)", E10.run);
    ("E11", "3-coloring reductions (Lemma 6.3, Thm 5.2)", E11.run);
    ("E12", "flexible layering (Thm E.1)", E12.run);
    ("E13", "heuristic quality (Secs 1-2 motivation)", E13.run);
    ("E14", "balance-parameter facts (App A)", E14.run);
    ("E15", "hyperDAG NP-hardness and App I.1 variants (Lemma B.3)", E15.run);
    ("E16", "multi-constraint algorithms (Lemma 6.2, App D.2)", E16.run);
  ]

let ids = List.map (fun (id, _, _) -> id) all
