(* Library root: every construction of the paper as an executable builder
   with solution mappings in both directions. *)
module Eps_reduction = Eps_reduction
module Spes_to_partition = Spes_to_partition
module Mc_builder = Mc_builder
module Mc_from_coloring = Mc_from_coloring
module Mc_from_ovp = Mc_from_ovp
module Layered_from_coloring = Layered_from_coloring
module Layering_from_three_partition = Layering_from_three_partition
module Sched_from_three_partition = Sched_from_three_partition
module Sched_from_clique = Sched_from_clique
module Assignment_from_three_dm = Assignment_from_three_dm
module Counterexamples = Counterexamples
module Mc_to_standard = Mc_to_standard
module Hyperdag_np_hard = Hyperdag_np_hard
