(** Library root: the experiment harness.  Each experiment module
    regenerates the series/rows of one paper anchor (see DESIGN.md's
    per-experiment index and EXPERIMENTS.md for paper-vs-measured
    notes); this root names them.  [Engine.Runner] runs them by id, as
    the jobs of [hypartition batch]. *)

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

val all : (string * string * (unit -> unit)) list
(** Every experiment as [(id, what it reproduces, run)], in paper
    order. *)

val ids : string list
(** The experiment ids of {!all}, in order ("E1" .. "E16"). *)
